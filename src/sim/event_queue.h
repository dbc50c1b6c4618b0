// The engine's event-queue abstraction (DESIGN.md §12).
//
// Engine owns the clock, ids, the live-event count and the trace digest;
// an EventQueue owns only *ordering*: deliver pending events in ascending
// (time, seq), with exact cancellation. Two implementations share the
// contract:
//
//  - ReferenceEventQueue: the original std::priority_queue over
//    std::vector with unordered_set tombstones. O(log n) per operation and
//    allocation-happy, but simple enough to audit by eye — it is the
//    oracle the fast queue is differentially tested against
//    (tests/sim/event_queue_diff_test.cc).
//
//  - TimingWheelEventQueue: a 3-level hierarchical timing wheel (1024 ns
//    ticks, 256 buckets per level, ~17 simulated seconds of horizon) with
//    a sorted far-list for events beyond the top level, arena-allocated
//    slots and an open-addressing id map. O(1) schedule/cancel, amortized
//    O(1) fire, and zero heap allocations in steady state.
//
// Both implement *lazy* tombstoning: cancel marks the event and pop purges
// it when it reaches the front, so tombstone_count() — and therefore every
// white-box test — reads identically on either queue. Firing order is
// bit-identical by construction; tests/integration/digest_pins.txt holds
// the proof.
#pragma once

#include <cstdint>
#include <memory>

#include "common/units.h"
#include "sim/event_arena.h"

namespace sv::sim {

/// Which EventQueue implementation an Engine/Simulation runs on.
enum class QueueKind {
  kTimingWheel,    // the fast default
  kReferenceHeap,  // the audited oracle (tests, differential benches)
};

/// A popped event, ready to fire. The handler is moved out of the queue's
/// storage before invocation, so a handler that reschedules (and thereby
/// recycles its own slot) cannot alias itself.
struct FiredEvent {
  SimTime time;
  std::uint64_t id = 0;
  InlineHandler fn;
};

class EventQueue {
 public:
  virtual ~EventQueue() = default;

  /// Inserts an event. `seq` is the engine's global insertion counter:
  /// delivery is in ascending (time, seq), which makes same-timestamp
  /// events FIFO — the property the determinism contract leans on
  /// (DESIGN.md §8, §12).
  virtual void push(SimTime t, std::uint64_t seq, std::uint64_t id,
                    InlineHandler&& fn) = 0;

  /// Exact cancel: true iff `id` is pending and not already cancelled.
  /// Cancelled events stay physically queued (lazily purged on pop), so
  /// cancel is O(1) and tombstone accounting matches the reference.
  virtual bool cancel(std::uint64_t id) = 0;

  /// Extracts the earliest live event with time <= limit, purging any
  /// cancelled events encountered on the way. Cancelled events beyond
  /// `limit` stay queued — lazy purge keeps run_until O(events <= limit).
  /// Returns false when no live event is due by `limit`.
  virtual bool pop(SimTime limit, FiredEvent* out) = 0;

  /// Cancelled-but-still-queued events (white-box introspection; bounded
  /// by the number of queued events and zero once drained).
  [[nodiscard]] virtual std::size_t tombstone_count() const = 0;

  /// Implementation name for diagnostics and bench output.
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Factory keyed on QueueKind. `registry` (nullable) receives the sim.*
/// arena/wheel counters.
std::unique_ptr<EventQueue> make_event_queue(QueueKind kind,
                                             obs::Registry* registry);

}  // namespace sv::sim
