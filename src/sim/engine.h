// Discrete-event core: a clock and a (time, seq)-ordered event queue.
//
// Events with equal timestamps fire in insertion order, which — together
// with the one-process-at-a-time execution model in simulation.h — makes
// every run of a seeded experiment bit-identical. The engine folds every
// fired event into an FNV-1a trace digest so replay tests can prove two
// runs executed the identical event sequence (see trace_digest()).
//
// The ordering itself lives behind the EventQueue interface (DESIGN.md
// §12): the default is a hierarchical timing wheel with arena-allocated
// events (zero steady-state heap traffic); QueueKind::kReferenceHeap
// selects the original binary-heap oracle, which differential tests hold
// the wheel against (tests/sim/event_queue_diff_test.cc).
#pragma once

#include <cstdint>
#include <memory>

#include "common/units.h"
#include "obs/hub.h"
#include "sim/event_queue.h"

namespace sv::sim {

class Engine {
 public:
  /// Small-buffer-optimized move-only callable: engine handlers construct
  /// in place inside the event record, so scheduling a small lambda does
  /// not touch the heap (event_arena.h).
  using Handler = InlineHandler;

  explicit Engine(QueueKind queue_kind = QueueKind::kTimingWheel);

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to fire at absolute time `t` (must be >= now()).
  /// Returns an id usable with `cancel`. The handler is moved by
  /// reference all the way into its event slot.
  std::uint64_t schedule_at(SimTime t, Handler&& fn);
  /// Schedules `fn` to fire `delay` after now().
  std::uint64_t schedule(SimTime delay, Handler&& fn);

  /// Cancels a pending event; returns false if already fired/cancelled
  /// (cancel-after-fire is detected exactly, not guessed).
  bool cancel(std::uint64_t id);

  [[nodiscard]] bool empty() const { return live_events_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_events_; }

  /// Pops and runs the next event; returns false if the queue is empty.
  /// Re-entrant calls (stepping the engine from inside a handler) violate
  /// the one-event-at-a-time contract and fail an SV_ASSERT.
  bool step();
  /// Runs events until the queue is empty.
  void run();
  /// Runs events with time <= t, then advances the clock to exactly t.
  void run_until(SimTime t);

  [[nodiscard]] std::uint64_t events_fired() const {
    return fired_->value();
  }

  /// The simulation-wide observability bundle (tracer + metrics registry).
  /// Every layer reaches it through here; see DESIGN.md §9.
  [[nodiscard]] obs::Hub& obs() { return obs_; }
  [[nodiscard]] const obs::Hub& obs() const { return obs_; }

  /// FNV-1a hash over the (time, id) pairs of every fired event, in firing
  /// order. Two runs of the same seeded experiment must produce identical
  /// digests; see tests/integration/determinism_replay_test.cc and the
  /// cross-queue pins in tests/integration/digest_pins.txt.
  [[nodiscard]] std::uint64_t trace_digest() const { return digest_; }

  // ---- White-box introspection (tests only) ----
  /// Number of tombstoned (cancelled but not yet popped) events. Bounded by
  /// pending() + fired backlog; must drain to zero as the queue empties.
  /// Identical on both queue implementations (both purge lazily).
  [[nodiscard]] std::size_t tombstone_count() const {
    return queue_->tombstone_count();
  }
  /// The active queue implementation ("timing_wheel" / "reference_heap").
  [[nodiscard]] const char* queue_name() const { return queue_->name(); }

 private:
  /// Marks a fired event: updates bookkeeping, clock and trace digest.
  void note_fired(SimTime t, std::uint64_t id);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t live_events_ = 0;
  bool in_handler_ = false;
  obs::Hub obs_;
  // Registry-backed event counters (sim.events_fired / sim.events_cancelled);
  // created once in the constructor, bumped on the hot path.
  obs::Counter* fired_ = nullptr;
  obs::Counter* cancelled_count_ = nullptr;
  std::uint64_t digest_ = 14695981039346656037ULL;  // FNV-1a offset basis
  std::unique_ptr<EventQueue> queue_;
};

}  // namespace sv::sim
