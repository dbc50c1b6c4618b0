#include "sim/sync.h"

#include "common/check.h"

namespace sv::sim {

void WaitQueue::scrub() {
  while (!waiters_.empty() && waiters_.front().done()) {
    waiters_.pop_front();
  }
}

void WaitQueue::wait() {
  Process* p = sim_->current();
  if (p == nullptr) {
    throw std::logic_error("WaitQueue[" + name_ + "]::wait outside process");
  }
  waiters_.push_back(Waiter{{.proc = p}, nullptr});
  sim_->block_current(name_.c_str());
}

bool WaitQueue::wait_until(SimTime deadline) {
  if (deadline == SimTime::max()) {
    wait();
    return true;
  }
  Process* p = sim_->current();
  if (p == nullptr) {
    throw std::logic_error("WaitQueue[" + name_ +
                           "]::wait_until outside process");
  }
  if (deadline <= sim_->now()) return false;
  const std::shared_ptr<Timed> timed = enqueue_until({.proc = p}, deadline);
  sim_->block_current(name_.c_str());
  return timed->notified;
}

std::shared_ptr<WaitQueue::Timed> WaitQueue::enqueue_until(Blocked who,
                                                           SimTime deadline) {
  auto timed = std::make_shared<Timed>();
  waiters_.push_back(Waiter{who, timed});
  // The timeout event deliberately captures only the shared record, the
  // waiter and the simulation — never `this` — so it stays safe even if
  // the WaitQueue is destroyed before the event fires. Timed-out waiters
  // are lazily scrubbed.
  sim_->schedule_at(deadline, [sim = sim_, who, timed] {
    if (timed->done) return;
    timed->done = true;
    timed->notified = false;
    sim->wake(who);
  });
  return timed;
}

bool WaitQueue::notify_one() {
  scrub();
  if (waiters_.empty()) return false;
  Waiter w = std::move(waiters_.front());
  waiters_.pop_front();
  SV_DCHECK((w.who.proc != nullptr || w.who.stage) && !w.done(),
            "WaitQueue[" + name_ + "]: scrubbed entry at queue head");
  if (w.timed) {
    w.timed->done = true;
    w.timed->notified = true;
  }
  sim_->wake(w.who);
  return true;
}

void WaitQueue::notify_all() {
  while (notify_one()) {
  }
}

std::size_t WaitQueue::waiter_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < waiters_.size(); ++i) {
    if (!waiters_[i].done()) ++n;
  }
  return n;
}

}  // namespace sv::sim
