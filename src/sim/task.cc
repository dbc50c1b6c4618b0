#include "sim/task.h"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace sv::sim {
namespace {

// Frames are pooled by size class: class c holds blocks of
// (c + 1) * kClassBytes. A frame above the largest class comes from the
// heap and goes straight back to it.
constexpr std::size_t kClassBytes = 64;
constexpr std::size_t kClasses = 16;

struct FreeFrame {
  FreeFrame* next;
};

/// The free lists, one per class. Constant-initialized and trivially
/// destructible, so a frame freed during static destruction still finds
/// it. A plain static: every simulation runs on one OS thread (DESIGN.md
/// §5.1).
struct Pool {
  FreeFrame* free[kClasses] = {};
  std::size_t in_use = 0;
  bool reaped = false;  // at exit: frees go straight back to the heap
};
constinit Pool pool;

void poison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, bytes);
#endif
}

void unpoison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
}

/// Returns every pooled frame to the heap at exit, so a leak check finds
/// none.
struct Reaper {
  ~Reaper() {
    pool.reaped = true;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (FreeFrame* f = pool.free[c]) {
        unpoison(f, (c + 1) * kClassBytes);
        pool.free[c] = f->next;
        ::operator delete(f);
      }
    }
  }
};
Reaper reaper;

}  // namespace

void* task_frame_alloc(std::size_t bytes) {
  const std::size_t c = (bytes - 1) / kClassBytes;
  void* frame = nullptr;
  if (c >= kClasses) {
    frame = ::operator new(bytes);
  } else if (FreeFrame* f = pool.free[c]) {
    unpoison(f, (c + 1) * kClassBytes);
    pool.free[c] = f->next;
    frame = f;
  } else {
    frame = ::operator new((c + 1) * kClassBytes);
  }
  ++pool.in_use;
  return frame;
}

void task_frame_free(void* frame, std::size_t bytes) noexcept {
  --pool.in_use;
  const std::size_t c = (bytes - 1) / kClassBytes;
  if (c >= kClasses || pool.reaped) {
    ::operator delete(frame);
    return;
  }
  pool.free[c] = ::new (frame) FreeFrame{pool.free[c]};
  poison(frame, (c + 1) * kClassBytes);
}

std::size_t task_frames_in_use() { return pool.in_use; }

}  // namespace sv::sim
