// A simulated process: user code that runs on its own fiber — a fixed-size
// stack of its own, switched to and from in user space on the simulation's
// one OS thread. Scheduling is cooperative: exactly one process or stage
// (stage.h) executes at any instant, or the scheduler does, so simulation
// state needs no locking and runs are deterministic. DESIGN.md §5 states
// the fiber contract.
//
// Processes block inside simulated primitives (delay, channels, resources);
// the scheduler resumes them when the corresponding simulated event fires.
// A loop that only ever blocks in delay, a resource acquire or a wait queue
// can instead be a stage, which needs no stack of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>

#if !defined(__x86_64__) || !defined(__linux__)
#error "sim::Process switches fiber stacks in x86-64 SysV assembly on Linux"
#endif

namespace sv::sim {

class Simulation;

/// Thrown inside a process when the simulation shuts down while the process
/// is blocked; unwinds the process's stack cleanly. User code should not
/// catch it (or must rethrow).
struct ProcessKilled {};

class Process {
 public:
  /// Usable stack of every process. A PROT_NONE guard page sits below it:
  /// overflowing into it kills the run with a message naming the process.
  static constexpr std::size_t kStackBytes = 256 * 1024;

  Process(Simulation* sim, std::uint64_t id, std::string name,
          std::function<void()> body);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] bool blocked() const { return blocked_; }
  /// Non-empty label describing what the process is blocked on (diagnostics).
  [[nodiscard]] const char* block_reason() const { return block_reason_; }

  /// The process whose stack is executing, or nullptr on a scheduler's
  /// stack (an event handler or a stage).
  [[nodiscard]] static const Process* running() { return running_; }

 private:
  friend class Simulation;
  friend class StackGuard;  // process.cc: names the process on overflow

  /// running(): a plain static, as every simulation and all of its
  /// processes run on one OS thread (DESIGN.md §5.1).
  static inline const Process* running_ = nullptr;

  /// Scheduler-side: switch to the process; returns once it yields back.
  void resume_from_scheduler();
  /// Process-side: switch back to the scheduler; returns once resumed.
  void yield_to_scheduler();
  /// First frame on the fiber's stack: runs the body, then switches away
  /// for good.
  static void entry(Process* self);
  /// The two halves of a process-side switch. `fake_stack` carries ASan's
  /// fake stack across it: nullptr out of a finished fiber, and into one
  /// that has not run yet.
  void switch_out(void** fake_stack);
  void switch_in(void* fake_stack);
  /// Returns the stack to the free list and retires the sanitizer fiber.
  void release_stack();

  Simulation* sim_;
  std::uint64_t id_;
  std::string name_;
  std::function<void()> body_;

  // The fiber: its mapping (guard page, then stack), its stack pointer while
  // suspended, and the scheduler's while it runs.
  char* mapping_ = nullptr;
  void* sp_ = nullptr;
  void* scheduler_sp_ = nullptr;
  // Sanitizer fiber state, unused in plain builds. The scheduler's stack
  // bounds are kept per process: a process may itself run a simulation,
  // so the stack that resumed it is not always the OS thread's.
  const void* scheduler_stack_ = nullptr;
  std::size_t scheduler_stack_bytes_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_scheduler_ = nullptr;

  bool finished_ = false;
  bool blocked_ = false;       // waiting for an explicit wake()
  std::uint64_t wait_epoch_ = 0;  // bumps on every block; guards stale wakes
  const char* block_reason_ = "";
  std::exception_ptr error_;
};

}  // namespace sv::sim
