#include "sim/simulation.h"

#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/log.h"

namespace sv::sim {

Simulation::Simulation(QueueKind queue_kind) : engine_(queue_kind) {}

Simulation::~Simulation() {
  shutting_down_ = true;
  // Unwind every live process: resuming a blocked process makes its blocking
  // primitive observe shutting_down_ and throw ProcessKilled. Index loop:
  // a dying process could in principle spawn (processes_ may grow).
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    while (!processes_[i]->finished_) {
      resume(*processes_[i]);
    }
  }
  // Suspended stages are never resumed again: destroying a frame runs the
  // destructors of its locals and parameters, which is a stage's unwinding.
  // Index loop, as above.
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i]) stages_[i].destroy();
  }
}

Process& Simulation::spawn_impl(std::string name, std::function<void()> body) {
  processes_.push_back(std::make_unique<Process>(
      this, next_process_id_++, std::move(name), std::move(body)));
  Process* p = processes_.back().get();
  engine_.schedule(SimTime::zero(), [this, p] { resume(*p); });
  return *p;
}

void Simulation::start(Stage stage) {
  stage.frame_.promise().slot = stages_.size();
  stages_.push_back(stage.frame_);
  const Stage::Handle frame = std::exchange(stage.frame_, {});
  engine_.schedule(SimTime::zero(), [this, frame] { resume(frame); });
}

void Simulation::resume(Stage::Handle stage, std::coroutine_handle<> leaf) {
  SV_DCHECK(current_ == nullptr, "a stage resumed inside a process");
  leaf.resume();
  if (!stage.done()) return;
  Stage::promise_type& promise = stage.promise();
  const std::exception_ptr err = std::exchange(promise.error, nullptr);
  stages_[promise.slot] = nullptr;
  stage.destroy();
  if (err) std::rethrow_exception(err);
}

void Simulation::resume(Process& p) {
  if (p.finished_) return;
  Process* prev = current_;
  current_ = &p;
  p.resume_from_scheduler();
  current_ = prev;
  if (p.error_) {
    auto err = std::exchange(p.error_, nullptr);
    if (shutting_down_) {
      SV_ERROR("sim") << "process '" << p.name()
                      << "' threw during shutdown; exception dropped";
    } else {
      std::rethrow_exception(err);
    }
  }
}

void Simulation::check_current_killed() {
  if (shutting_down_) throw ProcessKilled{};
}

void Simulation::delay(SimTime d) {
  Process* p = current_;
  if (p == nullptr) {
    throw std::logic_error("Simulation::delay called outside a process");
  }
  if (d < SimTime::zero()) {
    throw std::invalid_argument("Simulation::delay: negative duration");
  }
  p->blocked_ = true;
  p->block_reason_ = "delay";
  const std::uint64_t epoch = ++p->wait_epoch_;
  engine_.schedule(d, [this, p, epoch] {
    if (p->blocked_ && p->wait_epoch_ == epoch) {
      p->blocked_ = false;
      resume(*p);
    }
  });
  p->yield_to_scheduler();
  check_current_killed();
}

Simulation::Sleep Simulation::sleep(SimTime d) {
  if (d < SimTime::zero()) {
    throw std::invalid_argument("Simulation::sleep: negative duration");
  }
  return Sleep(this, d);
}

void Simulation::block_current(const char* reason) {
  Process* p = current_;
  if (p == nullptr) {
    throw std::logic_error("Simulation::block_current outside a process");
  }
  p->blocked_ = true;
  p->block_reason_ = reason;
  ++p->wait_epoch_;
  p->yield_to_scheduler();
  check_current_killed();
}

void Simulation::wake(Process& p) {
  // During shutdown, destructor cascades (channels closing as objects die)
  // may try to wake processes that were already destroyed; everything is
  // being unwound anyway, so waking is a no-op. Checked before touching
  // `p`, whose memory may already be gone.
  if (shutting_down_) return;
  if (!p.blocked_ || p.finished_) return;
  // Claim the wakeup immediately so double-wakes are no-ops, but deliver it
  // through the event queue to preserve deterministic ordering.
  p.blocked_ = false;
  engine_.schedule(SimTime::zero(), [this, &p] { resume(p); });
}

void Simulation::wake(Stage::Handle stage, std::coroutine_handle<> leaf) {
  // As for a process: during shutdown the frame may already be destroyed.
  if (shutting_down_) return;
  engine_.schedule(SimTime::zero(),
                   [this, stage, leaf] { resume(stage, leaf); });
}

namespace {
// Clears running_ even when a process error propagates out of run(), so a
// test that EXPECT_THROWs on run() can keep using the simulation.
struct RunningScope {
  explicit RunningScope(bool* flag) : flag_(flag) { *flag_ = true; }
  ~RunningScope() { *flag_ = false; }
  RunningScope(const RunningScope&) = delete;
  RunningScope& operator=(const RunningScope&) = delete;
  bool* flag_;
};
}  // namespace

void Simulation::run() {
  SV_ASSERT(!running_ && current_ == nullptr,
            "Simulation::run: nested run (called from inside a process or "
            "event handler)");
  RunningScope scope(&running_);
  engine_.run();
}

void Simulation::run_until(SimTime t) {
  SV_ASSERT(!running_ && current_ == nullptr,
            "Simulation::run_until: nested run (called from inside a process "
            "or event handler)");
  RunningScope scope(&running_);
  engine_.run_until(t);
}

void Simulation::publish_metrics_every(SimTime period) {
  SV_ASSERT(period > SimTime::zero(),
            "publish_metrics_every: period must be positive");
  SV_ASSERT(!pump_active_,
            "publish_metrics_every: a snapshot pump is already installed");
  pump_active_ = true;
  engine_.schedule(period, [this, period] { pump_snapshot(period); });
}

void Simulation::pump_snapshot(SimTime period) {
  obs::Hub& hub = engine_.obs();
  hub.registry.counter("obs.snapshots").inc();
  hub.tracer.instant(now(), /*node=*/-1, "obs", "snapshot",
                     hub.snapshots_published());
  hub.publish(now());
  // Reschedule only while other work remains: when the pump is the only
  // pending event the run is over, and a self-perpetuating tick would keep
  // run() (which drains the queue) from ever returning.
  if (engine_.pending() > 0) {
    engine_.schedule(period, [this, period] { pump_snapshot(period); });
  } else {
    pump_active_ = false;
  }
}

std::size_t Simulation::live_process_count() const {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (!p->finished()) ++n;
  }
  return n;
}

std::vector<std::string> Simulation::blocked_process_names() const {
  std::vector<std::string> names;
  for (const auto& p : processes_) {
    if (!p->finished() && p->blocked()) {
      names.push_back(p->name() + " (" + p->block_reason() + ")");
    }
  }
  return names;
}

}  // namespace sv::sim
