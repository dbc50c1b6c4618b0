// Differential property test: the timing wheel must be observationally
// identical to the reference heap (DESIGN.md §12).
//
// Two Engines — one per QueueKind — execute the same randomized op script
// (schedule at mixed horizons, same-timestamp bursts, cancels including
// cancel-after-fire, bounded run_until, schedule-from-handler). After every
// pump both engines must agree on the fired sequence (time, id), the clock,
// pending/tombstone counts and the FNV-1a trace digest. Any divergence
// prints the seed, so a failure shrinks to a deterministic repro.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/units.h"

namespace sv::sim {
namespace {

/// One engine plus the observation log the differential harness compares.
struct Lane {
  explicit Lane(QueueKind kind) : engine(kind) {}

  Engine engine;
  std::vector<std::pair<std::int64_t, std::uint64_t>> fired;  // (ns, id)
  std::vector<EventId> ids;  // handles returned by schedule, op-aligned
  std::vector<bool> cancel_results;
};

/// Runs one op script on both queues and asserts identical observations.
void run_script(std::uint64_t seed, int ops) {
  std::mt19937_64 rng(seed);
  Lane wheel(QueueKind::kTimingWheel);
  Lane heap(QueueKind::kReferenceHeap);
  Lane* lanes[2] = {&wheel, &heap};
  const std::string ctx = "seed=" + std::to_string(seed);

  // Horizon mix: mostly near events (L0), a band of mid events (L1/L2
  // cascades) and a tail of far events (beyond the wheel, sorted far list).
  std::uniform_int_distribution<int> op_pick(0, 99);
  std::uniform_int_distribution<std::int64_t> near_ns(0, 200'000);
  std::uniform_int_distribution<std::int64_t> mid_ns(200'000, 80'000'000);
  std::uniform_int_distribution<std::int64_t> far_ns(17LL * 1'000'000'000,
                                                     40LL * 1'000'000'000);
  std::uniform_int_distribution<int> burst_len(2, 6);

  for (int op = 0; op < ops; ++op) {
    const int what = op_pick(rng);
    if (what < 45) {
      // Schedule a no-op event at a random horizon.
      std::int64_t delay = 0;
      const int h = op_pick(rng);
      if (h < 70) {
        delay = near_ns(rng);
      } else if (h < 95) {
        delay = mid_ns(rng);
      } else {
        delay = far_ns(rng);
      }
      for (Lane* lane : lanes) {
        lane->ids.push_back(
            lane->engine.schedule(SimTime::nanoseconds(delay), [] {}));
      }
    } else if (what < 55) {
      // Same-timestamp burst: FIFO-within-timestamp is the property most
      // likely to break in a bucketed queue.
      const std::int64_t delay = near_ns(rng);
      const int n = burst_len(rng);
      for (int i = 0; i < n; ++i) {
        for (Lane* lane : lanes) {
          lane->ids.push_back(
              lane->engine.schedule(SimTime::nanoseconds(delay), [] {}));
        }
      }
    } else if (what < 63) {
      // Handler that schedules from inside the firing event, including
      // schedule-at-now (tick <= wheel position → drain-merge path).
      const std::int64_t delay = near_ns(rng);
      const std::int64_t inner = op_pick(rng) < 50 ? 0 : near_ns(rng) / 4;
      for (Lane* lane : lanes) {
        Engine* e = &lane->engine;
        lane->ids.push_back(e->schedule(SimTime::nanoseconds(delay), [e, inner] {
          e->schedule(SimTime::nanoseconds(inner), [] {});
        }));
      }
    } else if (what < 78) {
      // Cancel a random previously-issued id — often already fired, so
      // this exercises exact cancel-after-fire detection in both queues.
      if (!wheel.ids.empty()) {
        std::uniform_int_distribution<std::size_t> pick(0,
                                                        wheel.ids.size() - 1);
        const std::size_t k = pick(rng);
        for (Lane* lane : lanes) {
          lane->cancel_results.push_back(lane->engine.cancel(lane->ids[k]));
        }
      }
    } else if (what < 90) {
      // Bounded pump: run_until a horizon-biased target.
      const std::int64_t ahead = op_pick(rng) < 80 ? near_ns(rng) : mid_ns(rng);
      for (Lane* lane : lanes) {
        lane->engine.run_until(lane->engine.now() + SimTime::nanoseconds(ahead));
      }
    } else if (what < 96) {
      // Single steps.
      for (Lane* lane : lanes) {
        lane->engine.step();
      }
    } else {
      // Drain completely (also forces far-list epoch jumps).
      for (Lane* lane : lanes) {
        lane->engine.run();
      }
    }

    // Compare observable state after every op so a divergence is caught at
    // the earliest point, not after the script ends.
    ASSERT_EQ(wheel.engine.now(), heap.engine.now()) << ctx << " op=" << op;
    ASSERT_EQ(wheel.engine.pending(), heap.engine.pending())
        << ctx << " op=" << op;
    ASSERT_EQ(wheel.engine.events_fired(), heap.engine.events_fired())
        << ctx << " op=" << op;
    ASSERT_EQ(wheel.engine.tombstone_count(), heap.engine.tombstone_count())
        << ctx << " op=" << op;
    ASSERT_EQ(wheel.engine.trace_digest(), heap.engine.trace_digest())
        << ctx << " op=" << op;
  }

  for (Lane* lane : lanes) {
    lane->engine.run();
  }
  EXPECT_EQ(wheel.engine.now(), heap.engine.now()) << ctx;
  EXPECT_EQ(wheel.engine.trace_digest(), heap.engine.trace_digest()) << ctx;
  EXPECT_EQ(wheel.engine.tombstone_count(), 0u) << ctx;
  EXPECT_EQ(heap.engine.tombstone_count(), 0u) << ctx;
  ASSERT_EQ(wheel.cancel_results.size(), heap.cancel_results.size());
  for (std::size_t i = 0; i < wheel.cancel_results.size(); ++i) {
    EXPECT_EQ(wheel.cancel_results[i], heap.cancel_results[i])
        << ctx << " cancel #" << i;
  }
  // Ids are engine-issued sequentially and digests fold them, but check the
  // raw streams too so a digest collision cannot mask a divergence. (Slots
  // differ by design: the reference heap returns 0.)
  ASSERT_EQ(wheel.ids.size(), heap.ids.size()) << ctx;
  for (std::size_t i = 0; i < wheel.ids.size(); ++i) {
    ASSERT_EQ(wheel.ids[i].id, heap.ids[i].id) << ctx << " schedule #" << i;
  }
}

TEST(EventQueueDiffTest, RandomScriptsAgreeAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    run_script(seed, 500);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueueDiffTest, LongScriptAgrees) {
  // One deep script (~10k ops) to reach steady-state arena reuse, multiple
  // L2 epochs and repeated far-list drains.
  run_script(0xC0FFEE, 10'000);
}

}  // namespace
}  // namespace sv::sim
