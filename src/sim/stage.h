// A stage: a stackless simulated activity. A stage is a C++20 coroutine
// that Simulation::start launches and that the simulation's events resume,
// so it needs no fiber stack and no stack switch; DESIGN.md §5.2 states the
// stage contract.
//
// Usage (the state comes in as parameters, never as lambda captures: a
// coroutine lambda's closure dies before its frame resumes):
//
//   sim::Stage relay(sim::Simulation* s, sim::Channel<int>* in,
//                    sim::Resource* cpu) {
//     while (true) {
//       while (in->empty() && !in->closed()) co_await in->readable();
//       if (!in->try_recv()) co_return;  // closed and drained
//       co_await cpu->acquire_stage();
//       co_await s->sleep(1_us);
//       cpu->release();
//     }
//   }
//   s.start(relay(&s, &ch, &cpu));
//
// A stage suspends only through four awaitables, each the stage form of
// one process call that schedules the same event: Simulation::sleep
// (delay), Resource::acquire_stage (acquire), WaitQueue::wait_stage (wait;
// Channel::readable is one) and WaitQueue::wait_until_stage (wait_until).
// A stage may also await a sim::Task (task.h), a blocking operation
// written once for processes and stages.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

namespace sv::sim {

class Simulation;

class Stage {
 public:
  struct promise_type {  // NOLINT(readability-identifier-naming)
    Stage get_return_object() {
      return Stage(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    /// Suspended at start: the frame runs from the event start() schedules.
    std::suspend_always initial_suspend() noexcept { return {}; }
    /// Suspended at the end: the simulation reads `error`, then destroys
    /// the frame.
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { error = std::current_exception(); }

    std::exception_ptr error;
    /// The frame's entry in the simulation's table of started frames.
    std::size_t slot = 0;
  };
  using Handle = std::coroutine_handle<promise_type>;

  Stage(Stage&& other) noexcept : frame_(std::exchange(other.frame_, {})) {}
  Stage& operator=(Stage&&) = delete;
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;
  /// A stage never started frees its frame here.
  ~Stage() {
    if (frame_) frame_.destroy();
  }

 private:
  friend class Simulation;

  explicit Stage(Handle frame) : frame_(frame) {}

  Handle frame_;
};

}  // namespace sv::sim
