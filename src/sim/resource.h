// FIFO resources: model CPU cores, NIC engines and link occupancy.
//
// Resource hands units to waiters in strict FIFO order with direct handoff
// (a released unit goes straight to the oldest waiter and cannot be stolen
// by a later arrival at the same timestamp), which is what a work-conserving
// hardware queue does and keeps the simulation deterministic. Processes and
// stages queue in the same FIFO: a stage awaits acquire_stage().
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"
#include "sim/ring_fifo.h"
#include "sim/simulation.h"

namespace sv::sim {

class Resource {
 public:
  Resource(Simulation* sim, std::int64_t capacity,
           std::string name = "resource");

  /// Blocks until a unit is available, then holds it.
  void acquire();
  /// Non-blocking; true on success.
  bool try_acquire();

  /// The stage form of acquire(): when try_acquire() would succeed the
  /// stage takes the unit at once, with no event; otherwise it joins the
  /// FIFO, and release() hands it the unit and schedules one zero-delay
  /// event, as it does for a process. A task run in place calls acquire()
  /// instead (task.h).
  class Acquire {
   public:
    [[nodiscard]] bool await_ready() const { return res_->try_acquire(); }
    void await_suspend(Stage::Handle stage) const {
      res_->waiters_.push_back(Blocked{.stage = stage, .leaf = stage});
    }
    template <TaskPromise P>
    bool await_suspend(std::coroutine_handle<P> task) const {
      const Stage::Handle root = task.promise().root;
      if (!root) {
        res_->acquire();
        return false;
      }
      res_->waiters_.push_back(Blocked{.stage = root, .leaf = task});
      return true;
    }
    void await_resume() const noexcept {}

   private:
    friend class Resource;
    explicit Acquire(Resource* res) : res_(res) {}
    Resource* res_;
  };
  [[nodiscard]] Acquire acquire_stage() { return Acquire(this); }

  /// Returns a unit; if someone is waiting, the unit transfers directly.
  void release();
  /// acquire(); delay(hold); release() — the common "occupy for t" pattern.
  void use(SimTime hold);

  [[nodiscard]] std::int64_t capacity() const { return capacity_; }
  [[nodiscard]] std::int64_t in_use() const { return in_use_; }
  [[nodiscard]] std::int64_t available() const { return capacity_ - in_use_; }
  [[nodiscard]] std::size_t queue_length() const { return waiters_.size(); }

  /// Cumulative busy integral (unit-nanoseconds) for utilization reporting.
  [[nodiscard]] std::int64_t busy_ns() const;

 private:
  void account();

  Simulation* sim_;
  std::int64_t capacity_;
  std::string name_;
  std::int64_t in_use_ = 0;
  RingFifo<Blocked> waiters_;

  // Busy-time accounting.
  mutable SimTime last_change_ = SimTime::zero();
  mutable std::int64_t busy_integral_ns_ = 0;
};

}  // namespace sv::sim
