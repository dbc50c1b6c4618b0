#include "sim/engine.h"

#include "common/check.h"

namespace sv::sim {
namespace {

/// RAII re-entrancy guard: handlers may schedule/cancel but must not pump
/// the engine themselves (that would interleave two events "at once" and
/// break deterministic ordering).
class HandlerScope {
 public:
  explicit HandlerScope(bool* flag) : flag_(flag) { *flag_ = true; }
  ~HandlerScope() { *flag_ = false; }
  HandlerScope(const HandlerScope&) = delete;
  HandlerScope& operator=(const HandlerScope&) = delete;

 private:
  bool* flag_;
};

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

constexpr std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xffULL)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

}  // namespace

Engine::Engine(QueueKind queue_kind)
    : fired_(&obs_.registry.counter("sim.events_fired")),
      cancelled_count_(&obs_.registry.counter("sim.events_cancelled")),
      queue_(make_event_queue(queue_kind, &obs_.registry)) {}

std::uint64_t Engine::schedule_at(SimTime t, Handler&& fn) {
  SV_ASSERT(t >= now_, "Engine::schedule_at: time in the past (t=" +
                           t.to_string() + " now=" + now_.to_string() + ")");
  const std::uint64_t id = next_id_++;
  queue_->push(t, next_seq_++, id, std::move(fn));
  ++live_events_;
  return id;
}

std::uint64_t Engine::schedule(SimTime delay, Handler&& fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

bool Engine::cancel(std::uint64_t id) {
  if (!queue_->cancel(id)) return false;
  SV_DCHECK(live_events_ > 0, "cancel with no live events");
  --live_events_;
  cancelled_count_->inc();
  return true;
}

void Engine::note_fired(SimTime t, std::uint64_t id) {
  SV_DCHECK(t >= now_, "event queue returned a past event");
  now_ = t;
  --live_events_;
  fired_->inc();
  digest_ = fnv1a_mix(digest_, static_cast<std::uint64_t>(t.ns()));
  digest_ = fnv1a_mix(digest_, id);
}

bool Engine::step() {
  SV_ASSERT(!in_handler_,
            "re-entrant Engine::step/run from inside an event handler");
  FiredEvent ev;
  if (!queue_->pop(SimTime::max(), &ev)) return false;
  note_fired(ev.time, ev.id);
  {
    HandlerScope scope(&in_handler_);
    ev.fn();
  }
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(SimTime t) {
  SV_ASSERT(!in_handler_,
            "re-entrant Engine::run_until from inside an event handler");
  FiredEvent ev;
  while (queue_->pop(t, &ev)) {
    note_fired(ev.time, ev.id);
    {
      HandlerScope scope(&in_handler_);
      ev.fn();
    }
  }
  if (now_ < t) now_ = t;
}

}  // namespace sv::sim
