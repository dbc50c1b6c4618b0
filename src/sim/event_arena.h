// Slab/arena storage for engine events (DESIGN.md §12).
//
// The event-queue hot path (schedule → fire, millions of times per
// experiment) must not touch the general-purpose allocator in steady
// state: EventArena hands out fixed EventSlot records carved from slabs
// and recycles released slots through an intrusive LIFO free list — the
// mem::BufferPool idiom (DESIGN.md §10) generalized to the simulator core
// (src/sim sits *below* src/mem in the layering DAG, so the idiom is
// reimplemented here rather than reused).
//
// Handlers are stored as InlineHandler: a small-buffer-optimized callable
// whose capture state lives inside the slot itself. Callables up to
// kInlineBytes (covers every engine handler in the tree, including a
// wrapped std::function) construct in place; larger ones spill to the heap
// and are counted (`sim.arena_handler_heap`) so regressions are visible.
//
// Accounting mirrors mem.pool_alloc/mem.pool_reuse: `sim.arena_slot_alloc`
// counts slots carved fresh from a slab, `sim.arena_slot_reuse` counts
// free-list recycles, and `sim.arena_slabs` counts slab allocations. In
// steady state only the reuse counter may advance — asserted by
// tests/sim/event_arena_test.cc.
//
// Determinism: the free list is strictly LIFO and the engine is
// single-threaded, so slot addresses, counter values, and recycling order
// are identical across runs of the same seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"

namespace sv::sim {

/// Small-buffer-optimized move-only callable (void() signature). Unlike
/// std::function, the inline capacity is large enough for every engine
/// handler in this codebase, making the schedule/fire path allocation-free;
/// larger captures fall back to the heap (see heap_allocated()).
class InlineHandler {
 public:
  /// Inline capture capacity. Sized to hold a std::function<void()> (32
  /// bytes on libstdc++) or a lambda capturing up to six pointers.
  static constexpr std::size_t kInlineBytes = 48;

  InlineHandler() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineHandler> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineHandler(F&& fn) {  // NOLINT(google-explicit-constructor): handler
    // types convert implicitly, mirroring the std::function API it replaces.
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_.bytes)) Fn(std::forward<F>(fn));
      ops_ = inline_ops<Fn>();
    } else {
      heap_ = new Fn(std::forward<F>(fn));
      ops_ = heap_ops<Fn>();
    }
  }

  InlineHandler(InlineHandler&& o) noexcept { steal(std::move(o)); }
  InlineHandler& operator=(InlineHandler&& o) noexcept {
    if (this != &o) {
      reset();
      steal(std::move(o));
    }
    return *this;
  }
  InlineHandler(const InlineHandler&) = delete;
  InlineHandler& operator=(const InlineHandler&) = delete;
  ~InlineHandler() { reset(); }

  void operator()() { ops_->invoke(target()); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }
  /// True when the callable spilled past kInlineBytes onto the heap.
  [[nodiscard]] bool heap_allocated() const {
    return ops_ != nullptr && !ops_->is_inline;
  }

  /// Destroys the held callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(target());
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into dst's inline buffer and destroy src. Null when a
    /// plain copy of the buffer does both (a trivially copyable inline
    /// callable) and for heap handlers, which move by pointer steal.
    void (*relocate)(void* dst, void* src);
    /// Null for a trivially destructible inline callable.
    void (*destroy)(void*);
    bool is_inline;
  };

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        std::is_trivially_copyable_v<Fn>
            ? nullptr
            : +[](void* dst, void* src) {
                ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
                static_cast<Fn*>(src)->~Fn();
              },
        std::is_trivially_destructible_v<Fn>
            ? nullptr
            : +[](void* p) { static_cast<Fn*>(p)->~Fn(); },
        true};
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        nullptr,  // heap handlers relocate by pointer steal
        [](void* p) { delete static_cast<Fn*>(p); },
        false};
    return &ops;
  }

  [[nodiscard]] void* target() {
    return ops_ != nullptr && ops_->is_inline ? static_cast<void*>(buf_.bytes)
                                              : heap_;
  }

  void steal(InlineHandler&& o) {
    ops_ = o.ops_;
    if (ops_ == nullptr) return;
    if (!ops_->is_inline) {
      heap_ = o.heap_;
    } else if (ops_->relocate == nullptr) {
      buf_ = o.buf_;
    } else {
      ops_->relocate(buf_.bytes, o.buf_.bytes);
    }
    o.ops_ = nullptr;
  }

  struct Buffer {
    alignas(std::max_align_t) std::byte bytes[kInlineBytes];
  };

  const Ops* ops_ = nullptr;
  union {
    Buffer buf_;
    void* heap_;
  };
};

/// One pending event. Lives in an EventArena slab; the prev/next links
/// thread it through whichever intrusive list currently owns it (a wheel
/// bucket, the far list, or the arena free list).
struct EventSlot {
  SimTime time;
  std::uint64_t seq = 0;
  std::uint64_t id = 0;
  EventSlot* prev = nullptr;
  EventSlot* next = nullptr;
  /// Stable arena index (slab * kSlabSlots + offset); the id→slot map
  /// stores this instead of a pointer.
  std::uint32_t index = 0;
  /// Lazily-purged tombstone flag (set by cancel, cleared on recycle).
  bool cancelled = false;
  /// Aliasing guard: true from acquire() to release(). SV_DCHECKed so a
  /// recycled slot can never be handed out while still referenced.
  bool live = false;
  InlineHandler fn;
};

/// Slab allocator + LIFO free list for EventSlots (see file comment).
class EventArena {
 public:
  /// `registry` may be null (standalone micro-tests); counters then
  /// accumulate into internal dummies.
  explicit EventArena(obs::Registry* registry);

  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  /// Returns a dead slot, recycling the most recently released one when
  /// available (LIFO) or carving a fresh slot (growing by one slab when
  /// the current slab is exhausted). The slot's handler is empty.
  [[nodiscard]] EventSlot* acquire();

  /// Destroys the slot's handler and pushes it onto the free list.
  void release(EventSlot* slot);

  [[nodiscard]] EventSlot* slot_at(std::uint32_t index);

  // ---- White-box introspection (tests / benchmarks) ----
  [[nodiscard]] std::size_t live_count() const { return live_; }
  [[nodiscard]] std::size_t free_count() const { return free_; }
  [[nodiscard]] std::uint64_t slab_allocs() const { return slabs_c_->value(); }
  [[nodiscard]] std::uint64_t slot_allocs() const { return alloc_c_->value(); }
  [[nodiscard]] std::uint64_t slot_reuses() const { return reuse_c_->value(); }
  /// Counter for handlers that spilled past InlineHandler's buffer; bumped
  /// by the owning queue (the arena cannot see handler construction).
  [[nodiscard]] obs::Counter* handler_heap_counter() { return heap_c_; }

  static constexpr std::size_t kSlabSlots = 256;

 private:
  std::vector<std::unique_ptr<EventSlot[]>> slabs_;
  EventSlot* free_head_ = nullptr;  // intrusive LIFO via EventSlot::next
  std::size_t next_unused_ = 0;     // first never-used slot index
  std::size_t live_ = 0;
  std::size_t free_ = 0;
  // Registry-backed when a registry is supplied; otherwise the owned
  // fallbacks keep the accessors meaningful in standalone tests.
  obs::Counter own_slabs_, own_alloc_, own_reuse_, own_heap_;
  obs::Counter* slabs_c_ = nullptr;
  obs::Counter* alloc_c_ = nullptr;
  obs::Counter* reuse_c_ = nullptr;
  obs::Counter* heap_c_ = nullptr;
};

/// Open-addressing map from event id to arena slot index, sized so the
/// schedule/cancel path stays allocation-free once the table has grown to
/// the experiment's peak pending-event count. Keys are the engine's dense
/// sequential ids (never 0); values are EventArena slot indices. Lookup
/// order is never iterated, so determinism does not depend on the hash
/// (and the multiplicative hash is platform-stable anyway).
class IdSlotMap {
 public:
  IdSlotMap();

  void insert(std::uint64_t id, std::uint32_t slot);
  /// Removes `id`, writing its slot index to *slot_out; false when absent
  /// (the exact cancel-after-fire test).
  bool erase(std::uint64_t id, std::uint32_t* slot_out);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return keys_.size(); }

 private:
  [[nodiscard]] std::size_t slot_for(std::uint64_t id) const {
    // Fibonacci (multiplicative) hashing: deterministic across platforms.
    return static_cast<std::size_t>((id * 11400714819323198485ULL) >>
                                    shift_);
  }
  void grow();

  std::vector<std::uint64_t> keys_;  // 0 = empty
  std::vector<std::uint32_t> vals_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 0;
};

}  // namespace sv::sim
