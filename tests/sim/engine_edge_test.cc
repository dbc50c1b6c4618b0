// Edge-case coverage for Engine::run_until, cancel bookkeeping, the
// re-entrancy guard, and the event-trace digest.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"

namespace sv::sim {
namespace {

using namespace sv::literals;

TEST(EngineRunUntilEdge, EventExactlyAtBoundaryFires) {
  Engine e;
  int fired = 0;
  e.schedule_at(10_us, [&] { ++fired; });
  e.schedule_at(10_us, [&] { ++fired; });
  e.schedule_at(SimTime::nanoseconds(10'001), [&] { ++fired; });
  e.run_until(10_us);
  EXPECT_EQ(fired, 2) << "t <= boundary fires, t > boundary stays queued";
  EXPECT_EQ(e.now(), 10_us);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(EngineRunUntilEdge, HandlerSchedulingAtBoundaryStillFires) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(10_us, [&] {
    order.push_back(1);
    // Scheduled from inside a handler at exactly t == boundary: must fire
    // within the same run_until call, after already-queued t==10us events.
    e.schedule_at(10_us, [&] { order.push_back(3); });
  });
  e.schedule_at(10_us, [&] { order.push_back(2); });
  e.run_until(10_us);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EngineRunUntilEdge, ScheduleAtNowOrdersAfterQueuedSameTimeEvents) {
  Engine e;
  std::vector<int> order;
  // Advance the clock to 5us with a throwaway event.
  e.schedule_at(5_us, [&] {
    // Already queued below: events A and B at t=5us. Scheduling at t==now()
    // from inside this handler must fire after them (insertion order).
    e.schedule_at(e.now(), [&] { order.push_back(99); });
  });
  e.schedule_at(5_us, [&] { order.push_back(1); });
  e.schedule_at(5_us, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 99}));
}

TEST(EngineRunUntilEdge, CancelThenRunUntilSkipsWithoutAdvancingPastT) {
  Engine e;
  int fired = 0;
  const auto a = e.schedule_at(5_us, [&] { ++fired; });
  e.schedule_at(20_us, [&] { ++fired; });
  EXPECT_TRUE(e.cancel(a));
  e.run_until(10_us);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now(), 10_us) << "clock lands exactly on t";
  EXPECT_EQ(e.tombstone_count(), 0u)
      << "tombstone purged when the cancelled event was popped";
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineRunUntilEdge, CancelBeyondTKeepsTombstoneUntilPopped) {
  Engine e;
  const auto far = e.schedule_at(30_us, [] {});
  EXPECT_TRUE(e.cancel(far));
  e.run_until(10_us);
  // The cancelled event is still physically queued (t=30us > 10us)...
  EXPECT_EQ(e.tombstone_count(), 1u);
  // ...and is purged once the queue drains past it.
  e.run();
  EXPECT_EQ(e.tombstone_count(), 0u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EngineCancelBookkeeping, CancelAfterFireIsDetectedExactly) {
  Engine e;
  const auto id = e.schedule_at(1_us, [] {});
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  // Seed bug: this used to insert a never-purged tombstone and decrement the
  // live-event count below its true value.
  EXPECT_FALSE(e.cancel(id));
  EXPECT_EQ(e.tombstone_count(), 0u);
  EXPECT_EQ(e.pending(), 0u);
  // Subsequent scheduling still behaves.
  int fired = 0;
  e.schedule(1_us, [&] { ++fired; });
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineCancelBookkeeping, MassCancelLeavesNoResidue) {
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(e.schedule(SimTime::nanoseconds(i + 1), [] {}));
  }
  for (const auto id : ids) EXPECT_TRUE(e.cancel(id));
  for (const auto id : ids) EXPECT_FALSE(e.cancel(id)) << "double cancel";
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_TRUE(e.empty());
  e.run();
  EXPECT_EQ(e.events_fired(), 0u);
  EXPECT_EQ(e.tombstone_count(), 0u) << "all tombstones purged on drain";
}

TEST(EngineCancelBookkeeping, CancelInsideHandlerOfSameTimeEvent) {
  Engine e;
  int fired = 0;
  EventId victim{};
  e.schedule_at(5_us, [&] { victim = e.schedule_at(5_us, [&] { ++fired; }); });
  e.schedule_at(5_us, [&] {
    if (victim.id != 0) {
      EXPECT_TRUE(e.cancel(victim));
    }
  });
  e.run();
  EXPECT_EQ(fired, 0) << "event cancelled before its turn in the same stamp";
  EXPECT_EQ(e.tombstone_count(), 0u);
}

TEST(EngineCancelBookkeeping, StaleHandleOfRecycledSlotIsFalse) {
  for (const QueueKind kind :
       {QueueKind::kTimingWheel, QueueKind::kReferenceHeap}) {
    Engine e(kind);
    const EventId fired_early = e.schedule_at(1_us, [] {});
    e.run();
    int fired = 0;
    const EventId later = e.schedule_at(2_us, [&] { ++fired; });
    // The LIFO free list hands the fired event's slot to the next one, so
    // the stale handle names a live slot that now holds a newer id.
    EXPECT_EQ(later.slot, fired_early.slot) << e.queue_name();
    EXPECT_FALSE(e.cancel(fired_early)) << e.queue_name();
    EXPECT_EQ(e.pending(), 1u) << e.queue_name();
    EXPECT_EQ(e.tombstone_count(), 0u) << e.queue_name();
    e.run();
    EXPECT_EQ(fired, 1) << "the later event still fires (" << e.queue_name()
                        << ")";
  }
}

TEST(EngineCancelBookkeeping, OutOfRangeSlotIsFalse) {
  // The timing wheel checks the slot a handle names (the reference heap
  // cancels by id alone), so a slot past the arena is rejected.
  Engine e(QueueKind::kTimingWheel);
  int fired = 0;
  const EventId id = e.schedule_at(1_us, [&] { ++fired; });
  EXPECT_FALSE(e.cancel(EventId{id.id, id.slot + 1'000'000}));
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.tombstone_count(), 0u);
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineCancelBookkeeping, CancelFromOwnHandlerIsFalse) {
  for (const QueueKind kind :
       {QueueKind::kTimingWheel, QueueKind::kReferenceHeap}) {
    Engine e(kind);
    int fired = 0;
    EventId self{};
    self = e.schedule_at(5_us, [&] {
      ++fired;
      EXPECT_FALSE(e.cancel(self)) << "an event is no longer pending once "
                                      "its handler runs ("
                                   << e.queue_name() << ")";
    });
    e.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.pending(), 0u);
    EXPECT_EQ(e.tombstone_count(), 0u);
    EXPECT_EQ(e.obs().registry.counter("sim.events_cancelled").value(), 0u);
  }
}

TEST(EngineReentrancy, SteppingFromInsideAHandlerAsserts) {
  Engine e;
  bool threw = false;
  e.schedule(1_us, [&] {
    try {
      e.step();
    } catch (const CheckFailure&) {
      threw = true;
    }
  });
  e.schedule(2_us, [] {});
  e.run();
  EXPECT_TRUE(threw) << "re-entrant step() must fail the invariant";
  EXPECT_EQ(e.events_fired(), 2u) << "outer loop continues normally";
}

TEST(EngineTraceDigest, IdenticalSchedulesGiveIdenticalDigests) {
  auto run_once = [] {
    Engine e;
    for (int i = 0; i < 50; ++i) {
      e.schedule(SimTime::nanoseconds(100 - i), [] {});
    }
    e.run();
    return e.trace_digest();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EngineTraceDigest, DifferentFiringOrderChangesDigest) {
  Engine a;
  a.schedule(1_us, [] {});
  a.schedule(2_us, [] {});
  a.run();

  Engine b;
  b.schedule(2_us, [] {});
  b.schedule(1_us, [] {});
  b.run();

  EXPECT_NE(a.trace_digest(), b.trace_digest())
      << "digest encodes (time, id) per fired event";
}

}  // namespace
}  // namespace sv::sim
