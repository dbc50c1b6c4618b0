// Fault-injection layer: determinism of the per-link streams, precise and
// probabilistic drops, burst extension, jitter, node slowdown/stall
// windows, and the fast fabric's internal loss recovery.
#include "net/fault.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/fabric.h"

namespace sv::net {
namespace {

using namespace sv::literals;

std::vector<bool> drop_sequence(FaultInjector& inj, int src, int dst,
                                int frames) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) {
    out.push_back(inj.on_frame(src, dst).drop);
  }
  return out;
}

TEST(FaultInjectorTest, SameSeedSamePlanSameDecisions) {
  const FaultPlan plan = FaultPlan::uniform_loss(0.3);
  FaultInjector a(plan, 42);
  FaultInjector b(plan, 42);
  EXPECT_EQ(drop_sequence(a, 0, 1, 256), drop_sequence(b, 0, 1, 256));
  EXPECT_EQ(a.frames_dropped(), b.frames_dropped());
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  const FaultPlan plan = FaultPlan::uniform_loss(0.3);
  FaultInjector a(plan, 1);
  FaultInjector b(plan, 2);
  EXPECT_NE(drop_sequence(a, 0, 1, 256), drop_sequence(b, 0, 1, 256));
}

TEST(FaultInjectorTest, LinkStreamsIndependentOfFirstTouchOrder) {
  // The per-link stream must depend only on (seed, src, dst), never on
  // which link happened to carry traffic first (determinism contract).
  const FaultPlan plan = FaultPlan::uniform_loss(0.3);
  FaultInjector ab_first(plan, 7);
  FaultInjector cd_first(plan, 7);
  const auto ab_1 = drop_sequence(ab_first, 0, 1, 128);
  const auto cd_1 = drop_sequence(ab_first, 2, 3, 128);
  const auto cd_2 = drop_sequence(cd_first, 2, 3, 128);
  const auto ab_2 = drop_sequence(cd_first, 0, 1, 128);
  EXPECT_EQ(ab_1, ab_2);
  EXPECT_EQ(cd_1, cd_2);
}

TEST(FaultInjectorTest, DirectedLinksHaveDistinctStreams) {
  const FaultPlan plan = FaultPlan::uniform_loss(0.5);
  FaultInjector inj(plan, 3);
  EXPECT_NE(drop_sequence(inj, 0, 1, 256), drop_sequence(inj, 1, 0, 256));
}

TEST(FaultInjectorTest, DropFramesHitExactly) {
  FaultPlan plan;
  plan.all_links.drop_frames = {2, 5};
  FaultInjector inj(plan, 1);
  const auto seq = drop_sequence(inj, 0, 1, 8);
  const std::vector<bool> want{false, false, true, false, false,
                               true,  false, false};
  EXPECT_EQ(seq, want);
  EXPECT_EQ(inj.frames_dropped(), 2u);
}

TEST(FaultInjectorTest, BurstContinuesAfterFirstLoss) {
  FaultPlan plan;
  plan.all_links.loss = 1e-9;  // effectively never starts a burst itself
  plan.all_links.burst_continue = 1.0;
  plan.all_links.drop_frames = {3};  // force the burst to start at frame 3
  FaultInjector inj(plan, 9);
  const auto seq = drop_sequence(inj, 0, 1, 16);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(seq[static_cast<std::size_t>(i)]);
  for (int i = 3; i < 16; ++i) {
    EXPECT_TRUE(seq[static_cast<std::size_t>(i)]) << "frame " << i;
  }
}

TEST(FaultInjectorTest, JitterBoundedAndCounted) {
  FaultPlan plan;
  plan.all_links.max_jitter = 10_us;
  FaultInjector inj(plan, 11);
  bool any_delay = false;
  for (int i = 0; i < 64; ++i) {
    const FaultDecision d = inj.on_frame(0, 1);
    EXPECT_FALSE(d.drop);
    EXPECT_GE(d.extra_delay, SimTime::zero());
    EXPECT_LE(d.extra_delay, 10_us);
    any_delay = any_delay || d.extra_delay > SimTime::zero();
  }
  EXPECT_TRUE(any_delay);
  EXPECT_EQ(inj.frames_delayed() > 0, any_delay);
}

TEST(FaultInjectorTest, ComputeFactorFollowsSlowdownWindows) {
  FaultPlan plan;
  plan.nodes.push_back(NodeFault{.node = 1,
                                 .start = 10_us,
                                 .duration = 10_us,
                                 .slow_factor = 4});
  FaultInjector inj(plan, 1);
  EXPECT_EQ(inj.compute_factor(1, 5_us), 1);
  EXPECT_EQ(inj.compute_factor(1, 10_us), 4);
  EXPECT_EQ(inj.compute_factor(1, 19_us), 4);
  EXPECT_EQ(inj.compute_factor(1, 20_us), 1);
  EXPECT_EQ(inj.compute_factor(0, 15_us), 1);  // other nodes untouched
}

TEST(FaultPlanTest, EnabledReflectsContents) {
  EXPECT_FALSE(FaultPlan::none().enabled());
  EXPECT_TRUE(FaultPlan::uniform_loss(0.01).enabled());
  FaultPlan stall;
  stall.nodes.push_back(NodeFault{.node = 0, .duration = 1_ms});
  EXPECT_TRUE(stall.enabled());
  FaultPlan one_link;
  one_link.links[{0, 1}].loss = 0.5;
  EXPECT_TRUE(one_link.enabled());
}

TEST(ClusterFaultTest, DisabledPlanIsANoOp) {
  sim::Simulation s;
  Cluster cluster(&s, 2);
  cluster.install_faults(FaultPlan::none(), 1);
  EXPECT_EQ(cluster.fault_injector(), nullptr);
  EXPECT_EQ(cluster.node(0).fault_injector(), nullptr);
}

TEST(ClusterFaultTest, LossyPipeDeliversEverythingInOrder) {
  sim::Simulation s;
  Cluster cluster(&s, 2);
  cluster.install_faults(FaultPlan::uniform_loss(0.2), 5);
  Pipe pipe(&s, &cluster.node(0), &cluster.node(1),
            CalibrationProfile::socket_via(), "lossy");
  std::vector<std::uint64_t> tags;
  s.spawn("rx", [&] {
    while (auto m = pipe.recv()) tags.push_back(m->tag);
  });
  s.spawn("tx", [&] {
    for (std::uint64_t i = 0; i < 16; ++i) {
      pipe.send(Message{.bytes = 32_KiB, .tag = i});
    }
    pipe.close();
  });
  s.run();
  ASSERT_EQ(tags.size(), 16u);
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(tags[i], i);
  EXPECT_GT(pipe.frames_retransmitted(), 0u);
  ASSERT_NE(cluster.fault_injector(), nullptr);
  EXPECT_EQ(cluster.fault_injector()->frames_dropped(),
            pipe.frames_retransmitted());
}

TEST(ClusterFaultTest, LossSlowsDeliveryDeterministically) {
  auto run = [](const FaultPlan& plan, std::uint64_t seed) {
    sim::Simulation s;
    Cluster cluster(&s, 2);
    cluster.install_faults(plan, seed);
    Pipe pipe(&s, &cluster.node(0), &cluster.node(1),
              CalibrationProfile::socket_via(), "p");
    s.spawn("rx", [&] {
      while (pipe.recv()) {
      }
    });
    s.spawn("tx", [&] {
      for (int i = 0; i < 16; ++i) pipe.send(Message{.bytes = 32_KiB});
      pipe.close();
    });
    s.run();
    return std::pair{s.now(), s.engine().trace_digest()};
  };
  const auto clean = run(FaultPlan::none(), 1);
  const auto lossy1 = run(FaultPlan::uniform_loss(0.1), 1);
  const auto lossy1_again = run(FaultPlan::uniform_loss(0.1), 1);
  const auto lossy2 = run(FaultPlan::uniform_loss(0.1), 2);
  EXPECT_GT(lossy1.first, clean.first);          // recovery costs time
  EXPECT_EQ(lossy1, lossy1_again);               // bit-identical replay
  EXPECT_NE(lossy1.second, lossy2.second);       // seeds diverge
}

TEST(ClusterFaultTest, SlowdownWindowScalesCompute) {
  sim::Simulation s;
  Cluster cluster(&s, 2);
  FaultPlan plan;
  plan.nodes.push_back(NodeFault{.node = 0,
                                 .start = SimTime::zero(),
                                 .duration = 1_s,
                                 .slow_factor = 3});
  cluster.install_faults(plan, 1);
  SimTime took;
  s.spawn("w", [&] {
    const SimTime t0 = s.now();
    cluster.node(0).compute(10_us);
    took = s.now() - t0;
  });
  s.run();
  EXPECT_EQ(took, 30_us);
}

TEST(ClusterFaultTest, StallWindowBlocksComputeUntilItEnds) {
  sim::Simulation s;
  Cluster cluster(&s, 2);
  FaultPlan plan;
  plan.nodes.push_back(
      NodeFault{.node = 0, .start = 100_us, .duration = 400_us});
  cluster.install_faults(plan, 1);
  SimTime done;
  s.spawn("w", [&] {
    s.delay(150_us);  // inside the stall window
    cluster.node(0).compute(1_us);
    done = s.now();
  });
  s.run();
  // The stall holds every CPU unit until 500us; our compute runs after.
  EXPECT_GE(done, 500_us);
}

TEST(ClusterFaultTest, StallWindowSpawnsNoProcess) {
  // The stall holders are stages (DESIGN.md §5.2), not processes.
  sim::Simulation s;
  Cluster cluster(&s, 2);
  FaultPlan plan;
  plan.nodes.push_back(
      NodeFault{.node = 0, .start = 100_us, .duration = 400_us});
  cluster.install_faults(plan, 1);
  EXPECT_EQ(s.live_process_count(), 0u);
  s.run();
  EXPECT_EQ(s.live_process_count(), 0u);
  // The holders took every unit at 100 us and gave them back at 500 us.
  EXPECT_EQ(s.now(), 500_us);
  EXPECT_EQ(cluster.node(0).cpu().busy_ns(), 2 * (400_us).ns());
  EXPECT_EQ(cluster.node(0).cpu().in_use(), 0);
}

}  // namespace
}  // namespace sv::net
