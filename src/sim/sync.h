// Simulated synchronization primitives built on Simulation::block/wake.
//
// All primitives are condition-variable style: a woken waiter re-checks its
// predicate, so these compose safely even with multiple producers/consumers.
// FIFO wake order keeps runs deterministic. Processes and stages wait in the
// same FIFOs: a stage awaits WaitQueue::wait_stage (Channel::readable) or
// wait_until_stage.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/result.h"
#include "sim/ring_fifo.h"
#include "sim/simulation.h"

namespace sv::sim {

/// A FIFO queue of blocked processes and suspended stages; the building
/// block for conditions and channels.
class WaitQueue {
  /// A timed waiter's outcome, co-owned by its timeout event.
  struct Timed {
    bool notified = false;
    bool done = false;  // true once notified or timed out
  };

 public:
  explicit WaitQueue(Simulation* sim, std::string name = "waitq")
      : sim_(sim), name_(std::move(name)) {}

  /// Blocks the calling process until notified.
  void wait();
  /// Blocks until notified or until simulated time reaches `deadline`.
  /// Returns true if notified, false on timeout; a deadline already
  /// reached returns false without blocking. SimTime::max() is wait(),
  /// which allocates nothing; a finite deadline schedules one timeout
  /// event.
  bool wait_until(SimTime deadline);

  /// The stage form of wait(): `co_await q.wait_stage()` joins the same
  /// FIFO, and the notify that reaches it schedules one zero-delay event.
  /// A task run in place calls wait() instead (task.h).
  class Wait {
   public:
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(Stage::Handle stage) const {
      q_->waiters_.push_back(Waiter{{.stage = stage, .leaf = stage}, nullptr});
    }
    template <TaskPromise P>
    bool await_suspend(std::coroutine_handle<P> task) const {
      const Stage::Handle root = task.promise().root;
      if (!root) {
        q_->wait();
        return false;
      }
      q_->waiters_.push_back(Waiter{{.stage = root, .leaf = task}, nullptr});
      return true;
    }
    void await_resume() const noexcept {}

   private:
    friend class WaitQueue;
    explicit Wait(WaitQueue* q) : q_(q) {}
    WaitQueue* q_;
  };
  [[nodiscard]] Wait wait_stage() { return Wait(this); }

  /// The stage form of wait_until(): `co_await q.wait_until_stage(deadline)`
  /// yields what wait_until(deadline) returns and schedules the same
  /// events. A task run in place calls wait_until() instead.
  class WaitUntil {
   public:
    [[nodiscard]] bool await_ready() const noexcept {
      return deadline_ != SimTime::max() && deadline_ <= q_->sim_->now();
    }
    void await_suspend(Stage::Handle stage) {
      enqueue(Blocked{.stage = stage, .leaf = stage});
    }
    template <TaskPromise P>
    bool await_suspend(std::coroutine_handle<P> task) {
      const Stage::Handle root = task.promise().root;
      if (!root) {
        notified_ = q_->wait_until(deadline_);
        return false;
      }
      enqueue(Blocked{.stage = root, .leaf = task});
      return true;
    }
    [[nodiscard]] bool await_resume() const noexcept {
      return timed_ ? timed_->notified : notified_;
    }

   private:
    friend class WaitQueue;
    WaitUntil(WaitQueue* q, SimTime deadline) : q_(q), deadline_(deadline) {}
    void enqueue(Blocked who) {
      if (deadline_ == SimTime::max()) {
        q_->waiters_.push_back(Waiter{who, nullptr});
        notified_ = true;
      } else {
        timed_ = q_->enqueue_until(who, deadline_);
      }
    }
    WaitQueue* q_;
    SimTime deadline_;
    bool notified_ = false;
    std::shared_ptr<Timed> timed_;
  };
  [[nodiscard]] WaitUntil wait_until_stage(SimTime deadline) {
    return WaitUntil(this, deadline);
  }

  /// Wakes the oldest waiter; returns false if none.
  bool notify_one();
  /// Wakes all current waiters.
  void notify_all();

  [[nodiscard]] std::size_t waiter_count() const;

 private:
  /// A queued waiter: the process or stage itself for wait() and
  /// wait_stage(), which allocate nothing; a timed wait adds the record
  /// its timeout event shares.
  struct Waiter {
    Blocked who;
    std::shared_ptr<Timed> timed;
    [[nodiscard]] bool done() const { return timed && timed->done; }
  };

  void scrub();
  /// Queues `who` with a timeout event at `deadline`, whose record it
  /// returns.
  std::shared_ptr<Timed> enqueue_until(Blocked who, SimTime deadline);

  Simulation* sim_;
  std::string name_;
  RingFifo<Waiter> waiters_;
};

/// Bounded (or unbounded with capacity 0 meaning "no limit") FIFO channel.
/// send() blocks while full; recv() blocks while empty. close() makes
/// further recv() calls drain remaining items then return nullopt.
template <typename T>
class Channel {
 public:
  Channel(Simulation* sim, std::size_t capacity, std::string name = "chan")
      : sim_(sim),
        capacity_(capacity),
        name_(std::move(name)),
        senders_(sim, name_ + ".send"),
        receivers_(sim, name_ + ".recv") {}

  /// Blocks while the channel is full. Throws if the channel is closed.
  void send(T item) {
    while (capacity_ != 0 && items_.size() >= capacity_ && !closed_) {
      senders_.wait();
    }
    if (closed_) {
      throw std::logic_error("Channel[" + name_ + "]: send after close");
    }
    items_.push_back(std::move(item));
    receivers_.notify_one();
  }

  /// Non-blocking send; false if full or closed.
  bool try_send(T item) {
    if (closed_) return false;
    if (capacity_ != 0 && items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    receivers_.notify_one();
    return true;
  }

  /// Blocks while empty. Returns nullopt once closed and drained.
  std::optional<T> recv() {
    while (items_.empty() && !closed_) {
      receivers_.wait();
    }
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    senders_.notify_one();
    return item;
  }

  /// Timed receive: like recv() but gives up after `timeout` with an
  /// ErrorCode::kTimeout error. ok(nullopt) still means closed-and-drained;
  /// `timeout` <= 0 means wait forever.
  [[nodiscard]] Result<std::optional<T>> recv_for(SimTime timeout) {
    if (timeout <= SimTime::zero()) return recv();
    const SimTime deadline = sim_->now() + timeout;
    while (items_.empty() && !closed_) {
      if (!receivers_.wait_until(deadline) && items_.empty() && !closed_) {
        return Error::timeout("Channel[" + name_ + "]: recv timed out after " +
                              timeout.to_string());
      }
    }
    if (items_.empty()) return std::optional<T>{};  // closed and drained
    std::optional<T> item = std::move(items_.front());
    items_.pop_front();
    senders_.notify_one();
    return item;
  }

  /// For a stage: `while (ch.empty() && !ch.closed()) co_await
  /// ch.readable();` followed by try_recv() is recv().
  [[nodiscard]] WaitQueue::Wait readable() { return receivers_.wait_stage(); }

  /// recv_for() as a task (task.h), with its events: what a transport's
  /// receive task awaits. recv() and recv_for() stay plain process calls,
  /// as a filter copy reads its fan-in queue through them (DESIGN.md §5.2).
  Task<Result<std::optional<T>>> recv_task(SimTime timeout) {
    const SimTime deadline = sim_->deadline_after(timeout);
    while (items_.empty() && !closed_) {
      if (!co_await receivers_.wait_until_stage(deadline) && items_.empty() &&
          !closed_) {
        co_return Error::timeout("Channel[" + name_ +
                                 "]: recv timed out after " +
                                 timeout.to_string());
      }
    }
    co_return try_recv();  // nullopt: closed and drained
  }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    senders_.notify_one();
    return item;
  }

  /// Marks the channel closed; wakes all blocked parties.
  void close() {
    closed_ = true;
    receivers_.notify_all();
    senders_.notify_all();
  }

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  Simulation* sim_;
  std::size_t capacity_;
  std::string name_;
  RingFifo<T> items_;
  bool closed_ = false;
  WaitQueue senders_;
  WaitQueue receivers_;
};

}  // namespace sv::sim
