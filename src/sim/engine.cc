#include "sim/engine.h"

#include <array>
#include <bit>
#include <cstddef>

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

/// kPrimePow[k] = kFnvPrime^k (mod 2^64).
constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
  std::array<std::uint64_t, 9> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k) {
    pow[k] = pow[k - 1] * kFnvPrime;
  }
  return pow;
}();

/// FNV-1a over the 8 little-endian bytes of `v`. A zero byte's step is a
/// bare multiply by the prime, so the high zero bytes fold into one
/// multiply by a power of it: the result is bit-identical to eight byte
/// steps, with a dependent chain as long as `v`'s significant bytes.
constexpr std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  const int n = (static_cast<int>(std::bit_width(v)) + 7) / 8;
  for (int i = 0; i < n; ++i) {
    h = (h ^ (v & 0xffULL)) * kFnvPrime;
    v >>= 8;
  }
  return h * kPrimePow[static_cast<std::size_t>(8 - n)];
}

}  // namespace

Engine::Engine(QueueKind queue_kind)
    : fired_(&obs_.registry.counter("sim.events_fired")),
      cancelled_count_(&obs_.registry.counter("sim.events_cancelled")),
      queue_(make_event_queue(queue_kind, &obs_.registry)) {}

EventId Engine::schedule_at(SimTime t, Handler&& fn) {
  SV_ASSERT(t >= now_, "Engine::schedule_at: time in the past (t=" +
                           t.to_string() + " now=" + now_.to_string() + ")");
  const std::uint64_t id = next_id_++;
  const std::uint32_t slot = queue_->push(t, id, std::move(fn));
  ++live_events_;
  return EventId{id, slot};
}

EventId Engine::schedule(SimTime delay, Handler&& fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

bool Engine::cancel(EventId e) {
  if (!queue_->cancel(e)) return false;
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
