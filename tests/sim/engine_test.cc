#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sv::sim {
namespace {

using namespace sv::literals;

TEST(EngineTest, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), SimTime::zero());
  EXPECT_TRUE(e.empty());
}

TEST(EngineTest, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(30_us, [&] { order.push_back(3); });
  e.schedule(10_us, [&] { order.push_back(1); });
  e.schedule(20_us, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30_us);
}

TEST(EngineTest, SameTimeFiresInInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule(5_us, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EngineTest, SameTimeFifoHoldsAcrossARecycledSlot) {
  // The event at 1 ns frees slot 0; its handler schedules at `t` into that
  // slot, under a newer id than the event already queued at `t`. Equal
  // times fire in (time, id) order, never by slot. On the wheel, 5 ns
  // lands in the drain list and 5 µs in a level-0 bucket.
  for (const QueueKind kind :
       {QueueKind::kTimingWheel, QueueKind::kReferenceHeap}) {
    for (const SimTime t : {5_ns, 5_us}) {
      Engine e(kind);
      std::vector<int> order;
      EventId late{};
      const EventId first = e.schedule_at(1_ns, [&] {
        late = e.schedule_at(t, [&] { order.push_back(2); });
      });
      const EventId queued = e.schedule_at(t, [&] { order.push_back(1); });
      e.run();
      EXPECT_EQ(late.slot, first.slot) << e.queue_name();
      EXPECT_GT(late.id, queued.id);
      EXPECT_EQ(order, (std::vector<int>{1, 2}))
          << e.queue_name() << " at " << t.to_string();
    }
  }
}

TEST(EngineTest, HandlerMayScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) e.schedule(1_us, chain);
  };
  e.schedule(1_us, chain);
  e.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now(), 5_us);
}

TEST(EngineTest, SchedulingInThePastThrows) {
  Engine e;
  e.schedule(10_us, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5_us, [] {}), std::logic_error);
}

TEST(EngineTest, CancelPreventsFiring) {
  Engine e;
  bool fired = false;
  const auto id = e.schedule(10_us, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(e.cancel(id));  // double-cancel is false
}

TEST(EngineTest, CancelInvalidIdIsFalse) {
  Engine e;
  EXPECT_FALSE(e.cancel(EventId{0, 0}));
  EXPECT_FALSE(e.cancel(EventId{999, 0}));
}

TEST(EngineTest, RunUntilAdvancesClockExactly) {
  Engine e;
  int fired = 0;
  e.schedule(10_us, [&] { ++fired; });
  e.schedule(20_us, [&] { ++fired; });
  e.schedule(30_us, [&] { ++fired; });
  e.run_until(20_us);
  EXPECT_EQ(fired, 2);  // events at t<=20us fire
  EXPECT_EQ(e.now(), 20_us);
  e.run_until(25_us);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 25_us);
  e.run();
  EXPECT_EQ(fired, 3);
}

TEST(EngineTest, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule(1_us, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(EngineTest, PendingCountTracksCancel) {
  Engine e;
  const auto a = e.schedule(1_us, [] {});
  e.schedule(2_us, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EngineTest, EventsFiredCounter) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule(SimTime(i), [] {});
  e.run();
  EXPECT_EQ(e.events_fired(), 7u);
}

TEST(EngineTest, CancelHeavyChurnLeavesNoResidue) {
  // RTO-like churn on both queue implementations: every "transfer" arms a
  // retransmit timer at a far horizon, completes shortly after, and cancels
  // the timer — so almost every scheduled event dies young, the dominant
  // pattern in the TCP stack. Counters, pending() and tombstones must all
  // reconcile exactly once the run drains.
  for (const QueueKind kind :
       {QueueKind::kTimingWheel, QueueKind::kReferenceHeap}) {
    Engine e(kind);
    const obs::Counter& cancelled =
        e.obs().registry.counter("sim.events_cancelled");
    constexpr int kRounds = 5000;
    int completions = 0;
    int rto_fires = 0;
    std::uint64_t cancels_accepted = 0;
    EventId pending_timer{};
    for (int i = 0; i < kRounds; ++i) {
      if (pending_timer.id != 0) {
        // Completion cancels the previous round's timer (always still
        // pending: it sits 200 ms out and the clock advances in µs steps).
        if (e.cancel(pending_timer)) ++cancels_accepted;
      }
      pending_timer = e.schedule(200_ms, [&] { ++rto_fires; });
      e.schedule(1_us, [&] { ++completions; });
      e.run_until(e.now() + 2_us);
      // Exactly one live event (the timer) remains; cancelled events beyond
      // the run_until horizon stay physically queued as tombstones.
      EXPECT_EQ(e.pending(), 1u);
    }
    EXPECT_EQ(cancels_accepted, static_cast<std::uint64_t>(kRounds - 1));
    EXPECT_EQ(cancelled.value(), cancels_accepted);
    // Cancelling an already-fired event must be rejected exactly, even
    // through a handle whose slot is live under a newer id.
    EXPECT_FALSE(e.cancel(EventId{pending_timer.id - 1, pending_timer.slot}));
    e.run();  // the last timer survives to fire
    EXPECT_EQ(completions, kRounds);
    EXPECT_EQ(rto_fires, 1);
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.pending(), 0u);
    EXPECT_EQ(e.tombstone_count(), 0u)
        << "tombstones must fully purge as the queue drains ("
        << e.queue_name() << ")";
    EXPECT_EQ(e.events_fired(),
              static_cast<std::uint64_t>(completions + rto_fires));
  }
}

TEST(EngineTest, DigestIsByteWiseFnv1aOfTimeAndId) {
  // Event times that need 0 to 8 significant bytes, then 300 more events
  // so the ids need two bytes too: the digest must equal FNV-1a over all
  // 8 little-endian bytes of each fired (time, id), zero bytes included.
  std::vector<std::int64_t> times = {0, 1, 255, 256};
  for (int shift = 16; shift <= 56; shift += 8) {
    times.push_back(std::int64_t{1} << shift);
  }
  for (std::int64_t i = 0; i < 300; ++i) times.push_back(1000 + i);
  Engine e;
  std::vector<std::uint64_t> ids(times.size());
  std::vector<std::uint64_t> fired;  // time, id, time, id, ...
  for (std::size_t i = 0; i < times.size(); ++i) {
    ids[i] = e.schedule_at(SimTime::nanoseconds(times[i]), [&, i] {
                fired.push_back(static_cast<std::uint64_t>(e.now().ns()));
                fired.push_back(ids[i]);
              }).id;
  }
  e.run();
  ASSERT_EQ(fired.size(), 2 * times.size());
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const std::uint64_t v : fired) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((v >> (8 * byte)) & 0xffULL)) * 1099511628211ULL;
    }
  }
  EXPECT_EQ(e.trace_digest(), h);
}

}  // namespace
}  // namespace sv::sim
