// A task: one blocking operation written once, for processes and stages
// alike. A task is a C++20 coroutine that never runs on its own:
//
//   - a process runs it in place, `std::move(t).run_in_place()`: the body
//     runs on the process's stack, and each simulator awaitable it reaches
//     (Simulation::sleep, Resource::acquire_stage, WaitQueue::wait_stage
//     and wait_until_stage) makes the process call (delay, acquire, wait,
//     wait_until) and carries on, so the body returns before run_in_place
//     does;
//   - a stage, or another task, `co_await`s it: the body starts inside the
//     awaiting coroutine's event, and each awaitable suspends the stage
//     that owns the chain, as the stage's own co_await would; the wake
//     resumes this task, and its return resumes the awaiting coroutine.
//
// Both forms schedule the events the process form schedules, so the
// operation keeps one body and every event keeps its (time, id) (DESIGN.md
// §5.2). Usage:
//
//   sim::Task<Result<void>> Pipe::send_task(Message m, SimTime timeout);
//   auto r = pipe.send_task(m, t).run_in_place();  // in a process
//   auto r = co_await pipe.send_task(m, t);        // in a stage or a task
//
// A Task<void> returns nothing: `vi.post_send_task(d).run_in_place();` or
// `co_await vi.post_send_task(d);`. An exception escaping the body is
// rethrown by run_in_place, or by the co_await in the awaiting coroutine.
// Frames come from a size-class free list (task.cc), so a warm task
// allocates nothing. The class is [[nodiscard]], Task<void> too: a task
// neither run nor awaited never executes its body.
#pragma once

#include <concepts>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "sim/process.h"
#include "sim/stage.h"

namespace sv::sim {

/// Frame storage for tasks: a size-class free list, returned to the heap at
/// exit and ASan-poisoned while pooled.
[[nodiscard]] void* task_frame_alloc(std::size_t bytes);
void task_frame_free(void* frame, std::size_t bytes) noexcept;
/// Task frames allocated and not yet freed (tests check teardown with it).
[[nodiscard]] std::size_t task_frames_in_use();

/// The part of a task's promise that does not depend on its value type.
struct TaskPromiseBase {
  static void* operator new(std::size_t bytes) {
    return task_frame_alloc(bytes);
  }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    task_frame_free(frame, bytes);
  }

  /// Returns to the awaiting coroutine, or out of run_in_place's resume.
  struct FinalAwait {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> self) const noexcept {
      const std::coroutine_handle<> next = self.promise().continuation;
      return next ? next : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  /// Suspended at start: the body runs once run in place or awaited.
  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwait final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }

  /// The stage whose chain of awaits reached this task; null while a
  /// process runs the chain in place.
  Stage::Handle root{};
  /// The coroutine that awaits this task; null when run in place.
  std::coroutine_handle<> continuation{};
  std::exception_ptr error;
};

/// The promise of some Task<T>: what a simulator awaitable's task path
/// accepts.
template <typename P>
concept TaskPromise = std::derived_from<P, TaskPromiseBase>;

/// Where a task's promise keeps what the body co_returns: a value, or
/// nothing for Task<void>.
template <typename T>
struct TaskResult {
  void return_value(T v) { value.emplace(std::move(v)); }
  std::optional<T> value;
};
template <>
struct TaskResult<void> {
  void return_void() noexcept {}
};

/// A task of value type T; Task<void> is one that returns nothing.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : TaskPromiseBase,  // NOLINT(readability-identifier-naming)
                        TaskResult<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  Task(Task&& other) noexcept : frame_(std::exchange(other.frame_, {})) {}
  Task& operator=(Task&&) = delete;
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (frame_) frame_.destroy();
  }

  /// Runs the body to its end on the calling process's stack and returns
  /// its value, or rethrows its exception. Outside a process it throws
  /// std::logic_error without running the body.
  T run_in_place() && {
    if (Process::running() == nullptr) {
      throw std::logic_error("sim::Task::run_in_place outside a process");
    }
    frame_.resume();
    return take();
  }

  // ---- Awaited by a stage or by another task ----
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  /// A plain stage awaits: it is the root, and the body starts at once.
  std::coroutine_handle<> await_suspend(Stage::Handle stage) noexcept {
    frame_.promise().root = stage;
    frame_.promise().continuation = stage;
    return frame_;
  }
  /// A task awaits: this task joins its chain, in place or in its stage.
  template <TaskPromise P>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<P> task) noexcept {
    frame_.promise().root = task.promise().root;
    frame_.promise().continuation = task;
    return frame_;
  }
  T await_resume() { return take(); }

 private:
  explicit Task(std::coroutine_handle<promise_type> frame) : frame_(frame) {}

  T take() {
    promise_type& p = frame_.promise();
    if (p.error) std::rethrow_exception(p.error);
    if constexpr (!std::is_void_v<T>) return std::move(*p.value);
  }

  std::coroutine_handle<promise_type> frame_;
};

}  // namespace sv::sim
