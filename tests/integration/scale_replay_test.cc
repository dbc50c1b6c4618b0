// Scale-out determinism replay (DESIGN.md §13): large open-loop runs over
// an explicit fat-tree — with faults, churn, and incast redirection active
// — must replay bit-identically from (config, seed) on both event-queue
// implementations. This is the scale companion to determinism_replay_test:
// thousands of processes, hundreds of thousands of modeled clients, and
// the full topology/mux stack in one digest.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness/openloop.h"
#include "net/fault.h"
#include "net/topology.h"

namespace sv::harness {
namespace {

/// The 128-node workload: k=8 fat-tree at exactly full fill, MMPP arrivals,
/// lossy jittery links, one mid-run node slowdown, connection churn, and
/// mild incast. Everything that could perturb the schedule is on at once.
OpenLoopConfig scale_cfg_128(net::Transport tr) {
  OpenLoopConfig cfg;
  cfg.transport = tr;
  cfg.cluster_nodes = 128;
  cfg.topology = net::TopologySpec::fat_tree(8, 2);
  cfg.seed = 2026;
  cfg.clients = 128'000;
  cfg.arrivals.kind = ArrivalKind::kMmpp;
  cfg.arrivals.rate_per_sec = 1'500.0;
  cfg.update_bytes = 2048;
  cfg.fanout = 4;
  cfg.incast_fraction = 0.1;
  cfg.hot_node = 17;
  cfg.churn_per_sec = 40.0;
  cfg.duration = SimTime::milliseconds(25);
  cfg.faults.all_links.loss = 0.01;
  cfg.faults.all_links.max_jitter = SimTime::microseconds(20);
  cfg.faults.nodes.push_back(
      {/*node=*/9, /*start=*/SimTime::milliseconds(8),
       /*duration=*/SimTime::milliseconds(6), /*slow_factor=*/3});
  return cfg;
}

void expect_identical(const OpenLoopResult& a, const OpenLoopResult& b,
                      const char* what) {
  EXPECT_EQ(a.offered, b.offered) << what;
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.drops, b.drops) << what;
  EXPECT_EQ(a.events_fired, b.events_fired) << what;
  EXPECT_EQ(a.trace_digest, b.trace_digest) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
}

TEST(ScaleReplay, FatTree128WithFaultsReplaysBitIdentically) {
  OpenLoopConfig cfg = scale_cfg_128(net::Transport::kSocketVia);

  cfg.queue_kind = sim::QueueKind::kTimingWheel;
  const OpenLoopResult wheel_a = run_open_loop(cfg);
  const OpenLoopResult wheel_b = run_open_loop(cfg);
  ASSERT_GT(wheel_a.offered, 1'000u);
  ASSERT_GT(wheel_a.delivered, 0u);
  expect_identical(wheel_a, wheel_b, "timing wheel, same seed");

  cfg.queue_kind = sim::QueueKind::kReferenceHeap;
  const OpenLoopResult heap_a = run_open_loop(cfg);
  const OpenLoopResult heap_b = run_open_loop(cfg);
  expect_identical(heap_a, heap_b, "reference heap, same seed");

  // The two queue implementations must execute the very same schedule.
  expect_identical(wheel_a, heap_a, "timing wheel vs reference heap");
}

TEST(ScaleReplay, FatTree128SeedChangesTheSchedule) {
  OpenLoopConfig cfg = scale_cfg_128(net::Transport::kSocketVia);
  const OpenLoopResult base = run_open_loop(cfg);
  cfg.seed = 2027;
  const OpenLoopResult other = run_open_loop(cfg);
  EXPECT_NE(base.trace_digest, other.trace_digest);
}

TEST(ScaleReplay, FatTree256HundredThousandClientsCompletes) {
  // The ISSUE acceptance run: 256 hosts on a k=12 fat-tree (partial fill),
  // >=100k modeled clients, deterministic across two same-seed runs.
  OpenLoopConfig cfg;
  cfg.cluster_nodes = 256;
  cfg.topology = net::TopologySpec::fat_tree(12, 4);
  cfg.seed = 31;
  cfg.clients = 120'000;
  cfg.arrivals.rate_per_sec = 1'200.0;
  cfg.update_bytes = 1024;
  cfg.fanout = 4;
  cfg.duration = SimTime::milliseconds(20);

  const OpenLoopResult a = run_open_loop(cfg);
  const OpenLoopResult b = run_open_loop(cfg);
  ASSERT_GT(a.offered, 2'000u);
  ASSERT_GT(a.delivered, 0u);
  expect_identical(a, b, "256-node fat-tree, same seed");
}

}  // namespace
}  // namespace sv::harness
