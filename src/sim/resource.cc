#include "sim/resource.h"

#include <stdexcept>

#include "common/check.h"

namespace sv::sim {

Resource::Resource(Simulation* sim, std::int64_t capacity, std::string name)
    : sim_(sim), capacity_(capacity), name_(std::move(name)) {
  if (capacity <= 0) {
    throw std::invalid_argument("Resource[" + name_ + "]: capacity must be > 0");
  }
}

void Resource::account() {
  const SimTime now = sim_->now();
  SV_DCHECK(now >= last_change_,
            "Resource[" + name_ + "]: simulated clock moved backwards");
  busy_integral_ns_ += in_use_ * (now - last_change_).ns();
  last_change_ = now;
}

void Resource::acquire() {
  Process* p = sim_->current();
  if (p == nullptr) {
    throw std::logic_error("Resource[" + name_ + "]::acquire outside process");
  }
  if (in_use_ < capacity_ && waiters_.empty()) {
    account();
    ++in_use_;
    SV_DCHECK(in_use_ <= capacity_,
              "Resource[" + name_ + "]: holders exceed capacity");
    return;
  }
  waiters_.push_back(Blocked{.proc = p});
  sim_->block_current(name_.c_str());
  // Direct handoff: release() transferred the unit to us before waking, so
  // in_use_ already counts this holder. Nothing to re-check.
  SV_DCHECK(in_use_ > 0 && in_use_ <= capacity_,
            "Resource[" + name_ + "]: handoff bookkeeping corrupt");
}

bool Resource::try_acquire() {
  if (in_use_ < capacity_ && waiters_.empty()) {
    account();
    ++in_use_;
    return true;
  }
  return false;
}

void Resource::release() {
  // Double-release detection: every release must match a held unit.
  SV_ASSERT(in_use_ > 0,
            "Resource[" + name_ + "]::release with none held (double release?)");
  if (!waiters_.empty()) {
    // Transfer the unit directly to the oldest waiter; in_use_ is unchanged.
    const Blocked next = waiters_.front();
    waiters_.pop_front();
    sim_->wake(next);
    return;
  }
  account();
  --in_use_;
}

void Resource::use(SimTime hold) {
  acquire();
  sim_->delay(hold);
  release();
}

std::int64_t Resource::busy_ns() const {
  const SimTime now = sim_->now();
  return busy_integral_ns_ + in_use_ * (now - last_change_).ns();
}

}  // namespace sv::sim
