#include "net/cluster.h"

#include <gtest/gtest.h>

namespace sv::net {
namespace {

using namespace sv::literals;

TEST(ClusterTest, NodesAreIndexedAndNamed) {
  sim::Simulation s;
  Cluster c(&s, 4);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.node(0).id(), 0);
  EXPECT_EQ(c.node(3).id(), 3);
  EXPECT_EQ(c.node(2).name(), "node2");
  EXPECT_THROW((void)c.node(4), std::out_of_range);
}

TEST(ClusterTest, DefaultNodesAreDualCpu) {
  // The paper's testbed: dual 1 GHz PIII nodes.
  sim::Simulation s;
  Cluster c(&s, 1);
  EXPECT_EQ(c.node(0).cpu().capacity(), 2);
  EXPECT_EQ(c.node(0).tx_host().capacity(), 1);
  EXPECT_EQ(c.node(0).link_in().capacity(), 1);
  EXPECT_EQ(c.node(0).rx_proto().capacity(), 1);
}

TEST(ClusterTest, ComputeUsesBothCores) {
  sim::Simulation s;
  Cluster c(&s, 1);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    s.spawn(std::string("w").append(std::to_string(i)), [&] {
      c.node(0).compute(10_ms);
      done.push_back(s.now());
    });
  }
  s.run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[1], 10_ms);  // two run in parallel
  EXPECT_EQ(done[3], 20_ms);  // next pair queues
}

TEST(ClusterTest, SlowFactorScalesCompute) {
  sim::Simulation s;
  NodeConfig cfg;
  cfg.slow_factor = 4;
  Cluster c(&s, 1, cfg);
  SimTime done;
  s.spawn("w", [&] {
    c.node(0).compute(5_ms);
    done = s.now();
  });
  s.run();
  EXPECT_EQ(done, 20_ms);
}

}  // namespace
}  // namespace sv::net
