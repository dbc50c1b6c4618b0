// Simulation: the facade tying the event engine to simulated processes and
// stages.
//
// Usage:
//   sim::Simulation s;
//   s.spawn("producer", [&] { s.delay(5_us); ch.send(42); });
//   s.spawn("consumer", [&] { int v = ch.recv(); });
//   s.start(relay(&s, &ch, &cpu));  // a stage (stage.h)
//   s.run();
//
// Only one process or stage runs at a time; all simulation state is
// single-threaded. Spawning, starting, scheduling and waking are legal from
// processes, stages and plain event handlers.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"
#include "sim/process.h"
#include "sim/stage.h"
#include "sim/task.h"

namespace sv::sim {

/// An entry of a waiter FIFO (WaitQueue, Resource): a blocked process or a
/// suspended stage. Simulation::wake resumes either through one zero-delay
/// event.
struct Blocked {
  Process* proc = nullptr;
  Stage::Handle stage{};
  /// What the wake resumes: `stage` itself or, when the stage waits
  /// inside a task it awaits (task.h), that innermost task.
  std::coroutine_handle<> leaf{};
};

class Simulation {
 public:
  /// `queue_kind` selects the engine's event-queue implementation
  /// (DESIGN.md §12); the default timing wheel is bit-identical to the
  /// reference heap, so this only matters for differential tests/benches.
  explicit Simulation(QueueKind queue_kind = QueueKind::kTimingWheel);
  /// Destroys the simulation; any still-blocked processes are unwound via
  /// ProcessKilled so their stacks unwind cleanly, then the frames of the
  /// stages still suspended are destroyed.
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Creates a process that starts at the current simulated time. Accepts
  /// move-only callables (wrapped internally; std::function requires
  /// copyability).
  template <typename F>
  Process& spawn(std::string name, F&& body) {
    if constexpr (std::is_copy_constructible_v<std::decay_t<F>>) {
      return spawn_impl(std::move(name), std::function<void()>(
                                             std::forward<F>(body)));
    } else {
      auto holder =
          std::make_shared<std::decay_t<F>>(std::forward<F>(body));
      return spawn_impl(std::move(name), [holder] { (*holder)(); });
    }
  }

  /// Starts a stage at the current simulated time. The simulation owns its
  /// frame from here on: one zero-delay event runs it to its first
  /// suspension, exactly where spawn() would schedule a process's first
  /// resume, and the frame is destroyed when the stage returns.
  void start(Stage stage);

  /// Schedules a plain (non-blocking) handler. The callable goes straight
  /// into the event's inline buffer, so an oversized capture shows up in
  /// `sim.arena_handler_heap` (DESIGN.md §12).
  EventId schedule(SimTime delay, Engine::Handler&& fn) {
    return engine_.schedule(delay, std::move(fn));
  }
  EventId schedule_at(SimTime t, Engine::Handler&& fn) {
    return engine_.schedule_at(t, std::move(fn));
  }
  bool cancel(EventId e) { return engine_.cancel(e); }

  [[nodiscard]] SimTime now() const { return engine_.now(); }
  /// The deadline of a blocking operation given `timeout` from now: a
  /// timeout <= 0 means wait forever, which is SimTime::max().
  [[nodiscard]] SimTime deadline_after(SimTime timeout) const {
    return timeout <= SimTime::zero() ? SimTime::max() : now() + timeout;
  }
  [[nodiscard]] Engine& engine() { return engine_; }
  /// Observability bundle (tracer + metrics registry); see DESIGN.md §9.
  [[nodiscard]] obs::Hub& obs() { return engine_.obs(); }

  /// Starts the live-snapshot pump (DESIGN.md §15): every `period` of
  /// simulated time, obs().publish() delivers a registry snapshot to the
  /// attached sinks. The pump stops itself once it is the only pending
  /// event, so run() (which runs until the queue drains) still
  /// terminates; never installed unless a consumer asks, so runs without
  /// live snapshots keep their historical event schedule and digests.
  /// At most one pump per simulation.
  void publish_metrics_every(SimTime period);
  [[nodiscard]] bool metrics_pump_active() const { return pump_active_; }

  /// Runs until no events remain (blocked processes may still exist — that
  /// models processes waiting forever). Rethrows the first process error.
  void run();
  void run_until(SimTime t);
  void run_for(SimTime d) { run_until(now() + d); }

  // ---- Callable only from inside a process ----

  /// The currently-running process, or nullptr when in the scheduler.
  [[nodiscard]] Process* current() const { return current_; }

  /// Advances this process by `d` of simulated time.
  void delay(SimTime d);
  /// Blocks this process until some other party calls wake() on it.
  /// `reason` shows up in diagnostics for deadlocked runs; it is kept by
  /// pointer, so it must outlive the block (primitives pass their name).
  void block_current(const char* reason);
  /// Wakes a process blocked in block_current(); no-op if not blocked.
  /// The process resumes via an event at the current simulated time.
  void wake(Process& p);
  /// Wakes a suspended stage through one event at the current simulated
  /// time that resumes `leaf` (the stage, or the task it waits in). The
  /// caller has taken it off the one FIFO it waited in.
  void wake(Stage::Handle stage, std::coroutine_handle<> leaf);
  void wake(const Blocked& b) {
    if (b.proc != nullptr) {
      wake(*b.proc);
    } else {
      wake(b.stage, b.leaf);
    }
  }

  // ---- Awaitable from inside a stage or a task ----

  /// The stage form of delay(): `co_await sim.sleep(d)` schedules one event
  /// at now() + d that resumes the stage — for d == 0 too, as delay(0)
  /// does, so no later event id moves. A task run in place delays its
  /// process instead (task.h).
  class Sleep {
   public:
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(Stage::Handle stage) const {
      sim_->schedule(d_, [sim = sim_, stage] { sim->resume(stage); });
    }
    template <TaskPromise P>
    bool await_suspend(std::coroutine_handle<P> task) const {
      const Stage::Handle root = task.promise().root;
      if (!root) {
        sim_->delay(d_);
        return false;
      }
      const std::coroutine_handle<> leaf = task;
      sim_->schedule(d_,
                     [sim = sim_, root, leaf] { sim->resume(root, leaf); });
      return true;
    }
    void await_resume() const noexcept {}

   private:
    friend class Simulation;
    Sleep(Simulation* sim, SimTime d) : sim_(sim), d_(d) {}
    Simulation* sim_;
    SimTime d_;
  };
  [[nodiscard]] Sleep sleep(SimTime d);

  // ---- Introspection ----
  /// Processes not yet finished (stages are not processes).
  [[nodiscard]] std::size_t live_process_count() const;
  [[nodiscard]] std::vector<std::string> blocked_process_names() const;
  [[nodiscard]] std::uint64_t events_fired() const {
    return engine_.events_fired();
  }

 private:
  friend class Process;

  Process& spawn_impl(std::string name, std::function<void()> body);
  void resume(Process& p);
  /// Resumes `leaf`, the stage or a task it awaits, up to the stage's next
  /// suspension; destroys the stage's frame, and rethrows its error, once
  /// it has returned.
  void resume(Stage::Handle stage, std::coroutine_handle<> leaf);
  void resume(Stage::Handle stage) { resume(stage, stage); }
  void check_current_killed();
  void pump_snapshot(SimTime period);

  Engine engine_;
  bool pump_active_ = false;
  std::vector<std::unique_ptr<Process>> processes_;
  /// Every started stage frame, by Stage::promise_type::slot; null once the
  /// stage has returned and its frame is gone.
  std::vector<Stage::Handle> stages_;
  Process* current_ = nullptr;
  std::uint64_t next_process_id_ = 1;
  bool shutting_down_ = false;
  bool running_ = false;
};

}  // namespace sv::sim
