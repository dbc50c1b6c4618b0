#include "sim/sync.h"

#include <limits>

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
  waiters_.push_back(Waiter{p, nullptr});
  sim_->block_current(name_.c_str());
}

bool WaitQueue::wait_for(SimTime timeout) {
  Process* p = sim_->current();
  if (p == nullptr) {
    throw std::logic_error("WaitQueue[" + name_ +
                           "]::wait_for outside process");
  }
  auto timed = std::make_shared<Timed>();
  waiters_.push_back(Waiter{p, timed});
  // The timeout event deliberately captures only the shared record, the
  // process and the simulation — never `this` — so it stays safe even if
  // the WaitQueue is destroyed before the event fires. Timed-out waiters
  // are lazily scrubbed.
  sim_->schedule(timeout, [sim = sim_, p, timed] {
    if (timed->done) return;
    timed->done = true;
    timed->notified = false;
    sim->wake(*p);
  });
  sim_->block_current(name_.c_str());
  return timed->notified;
}

bool WaitQueue::notify_one() {
  scrub();
  if (waiters_.empty()) return false;
  Waiter w = std::move(waiters_.front());
  waiters_.pop_front();
  SV_DCHECK(w.proc != nullptr && !w.done(),
            "WaitQueue[" + name_ + "]: scrubbed entry at queue head");
  if (w.timed) {
    w.timed->done = true;
    w.timed->notified = true;
  }
  sim_->wake(*w.proc);
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

void Semaphore::acquire() {
  while (count_ <= 0) {
    queue_.wait();
  }
  --count_;
  SV_DCHECK(count_ >= 0, "Semaphore: count went negative");
}

bool Semaphore::try_acquire() {
  if (count_ <= 0) return false;
  --count_;
  return true;
}

void Semaphore::release() {
  // Overflow here means unbalanced release() calls (the semaphore analogue
  // of a double-release).
  SV_ASSERT(count_ < std::numeric_limits<std::int64_t>::max(),
            "Semaphore: release overflow (unbalanced release calls)");
  ++count_;
  queue_.notify_one();
}

}  // namespace sv::sim
