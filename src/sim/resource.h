// FIFO resources: model CPU cores, NIC engines and link occupancy.
//
// Resource hands units to waiters in strict FIFO order with direct handoff
// (a released unit goes straight to the oldest waiter and cannot be stolen
// by a later arrival at the same timestamp), which is what a work-conserving
// hardware queue does and keeps the simulation deterministic.
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
  [[nodiscard]] double utilization(SimTime window_start,
                                   SimTime window_end) const;

 private:
  void account();

  Simulation* sim_;
  std::int64_t capacity_;
  std::string name_;
  std::int64_t in_use_ = 0;
  RingFifo<Process*> waiters_;

  // Busy-time accounting.
  mutable SimTime last_change_ = SimTime::zero();
  mutable std::int64_t busy_integral_ns_ = 0;
};

/// A full-duplex point-to-point pipe modelled as two independent
/// single-server resources (TX of the sender side, RX of the receiver side).
struct DuplexPort {
  DuplexPort(Simulation* sim, const std::string& name)
      : tx(sim, 1, name + ".tx"), rx(sim, 1, name + ".rx") {}
  Resource tx;
  Resource rx;
};

}  // namespace sv::sim
