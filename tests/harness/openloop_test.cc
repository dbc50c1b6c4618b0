// Statistical and reproducibility tests for the open-loop workload
// generator (harness/openloop.h): Poisson/MMPP rates match configuration
// within tolerance across many seeds, schedules derive from (seed, config)
// alone, and full runs are bit-deterministic.
#include "harness/openloop.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sv::harness {
namespace {

/// Arrivals of `ap` in [0, horizon), as a count.
std::uint64_t count_until(ArrivalProcess& ap, SimTime horizon) {
  std::uint64_t n = 0;
  while (ap.next() <= horizon) ++n;
  return n;
}

TEST(ArrivalProcess, PoissonRateMatchesConfigAcrossSeeds) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_sec = 10'000.0;
  const SimTime horizon = SimTime::seconds(2);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ArrivalProcess ap(spec, seed);
    const double measured =
        static_cast<double>(count_until(ap, horizon)) / horizon.sec();
    EXPECT_NEAR(measured, spec.rate_per_sec, 0.05 * spec.rate_per_sec)
        << "seed " << seed;
  }
}

TEST(ArrivalProcess, MmppLongRunRateMatchesSojournWeightedMean) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kMmpp;
  spec.rate_per_sec = 2'000.0;
  spec.mmpp_high_per_sec = 8'000.0;
  spec.mmpp_sojourn_low = SimTime::milliseconds(20);
  spec.mmpp_sojourn_high = SimTime::milliseconds(5);
  // Expected long-run rate: sojourn-weighted state mix.
  const double expect =
      (2'000.0 * 20.0 + 8'000.0 * 5.0) / (20.0 + 5.0);  // 3200/s
  const SimTime horizon = SimTime::seconds(4);
  for (std::uint64_t seed = 11; seed <= 18; ++seed) {
    ArrivalProcess ap(spec, seed);
    const double measured =
        static_cast<double>(count_until(ap, horizon)) / horizon.sec();
    EXPECT_NEAR(measured, expect, 0.15 * expect) << "seed " << seed;
  }
}

TEST(ArrivalProcess, SameSeedSameScheduleDifferentSeedDiffers) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kMmpp;
  spec.rate_per_sec = 5'000.0;

  std::vector<std::int64_t> a;
  std::vector<std::int64_t> b;
  std::vector<std::int64_t> c;
  ArrivalProcess pa(spec, 99);
  ArrivalProcess pb(spec, 99);
  ArrivalProcess pc(spec, 100);
  for (int i = 0; i < 1'000; ++i) {
    a.push_back(pa.next().ns());
    b.push_back(pb.next().ns());
    c.push_back(pc.next().ns());
  }
  EXPECT_EQ(a, b) << "same (seed, config) must replay bit-identically";
  EXPECT_NE(a, c) << "a different seed must give a different schedule";
}

TEST(ArrivalProcess, ArrivalTimesStrictlyIncrease) {
  ArrivalSpec spec;
  spec.rate_per_sec = 1e6;  // dense stream to stress tie-breaking
  ArrivalProcess ap(spec, 7);
  SimTime prev = SimTime::zero();
  for (int i = 0; i < 20'000; ++i) {
    const SimTime t = ap.next();
    ASSERT_GT(t, prev);
    prev = t;
  }
}

TEST(ArrivalSpec, PeakEnvelopeBoundsEveryModulation) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kMmpp;
  spec.rate_per_sec = 1'000.0;
  spec.mmpp_high_per_sec = 6'000.0;
  const double peak = spec.peak_rate_per_sec();
  ArrivalProcess ap(spec, 5);
  for (int ms = 0; ms < 200; ++ms) {
    EXPECT_LE(ap.rate_at(SimTime::milliseconds(ms)), peak + 1e-9);
  }
}

TEST(OpenLoop, SmallRunDeliversAndIsDeterministic) {
  OpenLoopConfig cfg;
  cfg.cluster_nodes = 16;
  cfg.topology = net::TopologySpec::fat_tree(4);
  cfg.clients = 4'000;
  cfg.arrivals.rate_per_sec = 20'000.0;
  cfg.duration = SimTime::milliseconds(40);
  cfg.seed = 3;

  const OpenLoopResult a = run_open_loop(cfg);
  const OpenLoopResult b = run_open_loop(cfg);
  EXPECT_GT(a.offered, 0u);
  EXPECT_GT(a.delivered, 0u);
  EXPECT_LE(a.delivered + a.drops, a.offered);
  EXPECT_EQ(a.update_latency.count(), a.delivered);

  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.end_time, b.end_time);

  OpenLoopConfig other = cfg;
  other.seed = 4;
  const OpenLoopResult c = run_open_loop(other);
  EXPECT_NE(a.trace_digest, c.trace_digest);
}

TEST(OpenLoop, QueueKindsAgreeBitForBit) {
  OpenLoopConfig cfg;
  cfg.cluster_nodes = 16;
  cfg.topology = net::TopologySpec::fat_tree(4, 2);
  cfg.clients = 2'000;
  cfg.arrivals.kind = ArrivalKind::kMmpp;
  cfg.arrivals.rate_per_sec = 10'000.0;
  cfg.churn_per_sec = 50.0;
  cfg.incast_fraction = 0.2;
  cfg.hot_node = 5;
  cfg.duration = SimTime::milliseconds(30);
  cfg.seed = 12;

  cfg.queue_kind = sim::QueueKind::kTimingWheel;
  const OpenLoopResult wheel = run_open_loop(cfg);
  cfg.queue_kind = sim::QueueKind::kReferenceHeap;
  const OpenLoopResult heap = run_open_loop(cfg);
  EXPECT_EQ(wheel.events_fired, heap.events_fired);
  EXPECT_EQ(wheel.trace_digest, heap.trace_digest);
  EXPECT_EQ(wheel.end_time, heap.end_time);
}

TEST(OpenLoop, IncastRedirectionLoadsTheHotNode) {
  OpenLoopConfig cfg;
  cfg.cluster_nodes = 16;
  cfg.topology = net::TopologySpec::fat_tree(4, 4);
  cfg.clients = 2'000;
  cfg.arrivals.rate_per_sec = 15'000.0;
  cfg.hot_node = 0;
  cfg.duration = SimTime::milliseconds(30);

  OpenLoopConfig spread = cfg;
  spread.incast_fraction = 0.0;
  OpenLoopConfig funnel = cfg;
  funnel.incast_fraction = 0.5;

  const OpenLoopResult even = run_open_loop(spread);
  const OpenLoopResult hot = run_open_loop(funnel);
  EXPECT_GT(even.delivered, 0u);
  EXPECT_GT(hot.delivered, 0u);
  // Funneling half of all updates into one edge switch must lengthen the
  // tail relative to the evenly spread run of identical aggregate load.
  EXPECT_GT(hot.update_latency.percentile(99.0),
            even.update_latency.percentile(99.0));
}

}  // namespace
}  // namespace sv::harness
