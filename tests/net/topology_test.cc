// Property tests for the explicit switch fabric (net/topology.h): routing
// determinism, symmetry, fat-tree hop structure, and the oversubscription
// capacity contract — swept over arities and node counts.
#include "net/topology.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "net/cluster.h"
#include "net/fabric.h"
#include "sim/simulation.h"

namespace sv::net {
namespace {

using sv::sim::Simulation;

std::vector<std::string> path_names(const Topology& topo, int s, int d) {
  std::vector<std::string> names;
  const Topology::Path p = topo.route(s, d);
  for (std::uint32_t i = 0; i < p.hops; ++i) {
    names.push_back(topo.link(p.link[i]).name);
  }
  return names;
}

TEST(TopologySpec, FatTreeCapacity) {
  EXPECT_EQ(TopologySpec::fat_tree(4).max_nodes(), 16);
  EXPECT_EQ(TopologySpec::fat_tree(8).max_nodes(), 128);
  EXPECT_EQ(TopologySpec::fat_tree(12).max_nodes(), 432);
}

TEST(Topology, CrossbarHasNoFabric) {
  Simulation s;
  Topology topo(&s, TopologySpec::single_crossbar(), 16);
  EXPECT_EQ(topo.link_count(), 0u);
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      EXPECT_EQ(topo.hop_count(a, b), 0u);
      EXPECT_EQ(topo.path_latency(a, b), SimTime::zero());
      EXPECT_EQ(topo.edge_switch_of(a), 0);
    }
  }
}

TEST(Topology, FatTreeHopCountsMatchK) {
  for (const int k : {4, 6, 8}) {
    for (const int nodes : {k * k * k / 4, k * k * k / 4 - 3, k + 1}) {
      Simulation s;
      Topology topo(&s, TopologySpec::fat_tree(k), nodes);
      const int half = k / 2;
      for (int a = 0; a < nodes; ++a) {
        for (int b = 0; b < nodes; ++b) {
          const std::size_t hops = topo.hop_count(a, b);
          if (a == b || a / half == b / half) {
            EXPECT_EQ(hops, 0u) << "k=" << k << " " << a << "->" << b;
          } else if (a / (half * half) == b / (half * half)) {
            // Same pod (a pod hosts (k/2)^2 nodes), different edge.
            EXPECT_EQ(hops, 2u) << "k=" << k << " " << a << "->" << b;
          } else {
            EXPECT_EQ(hops, 4u) << "k=" << k << " " << a << "->" << b;
          }
          EXPECT_EQ(topo.path_latency(a, b),
                    kHopLatency * static_cast<std::int64_t>(hops));
        }
      }
    }
  }
}

TEST(Topology, RoutesAreDeterministicAcrossInstances) {
  for (const int k : {4, 6}) {
    const int nodes = k * k * k / 4;
    Simulation s1;
    Simulation s2;
    Topology t1(&s1, TopologySpec::fat_tree(k), nodes);
    Topology t2(&s2, TopologySpec::fat_tree(k), nodes);
    for (int a = 0; a < nodes; ++a) {
      for (int b = 0; b < nodes; ++b) {
        EXPECT_EQ(path_names(t1, a, b), path_names(t1, a, b))
            << "route not stable within an instance";
        EXPECT_EQ(path_names(t1, a, b), path_names(t2, a, b))
            << "route differs across instances built from the same spec";
      }
    }
  }
}

TEST(Topology, PathsAreSymmetric) {
  // route(b, a) must traverse the same switches as route(a, b), in reverse
  // with each link's direction flipped — the choice of aggregation/core is
  // a pure function of the unordered pair.
  for (const int k : {4, 6, 8}) {
    const int nodes = k * k * k / 4 - 1;
    Simulation s;
    Topology topo(&s, TopologySpec::fat_tree(k), nodes);
    for (int a = 0; a < nodes; ++a) {
      for (int b = a + 1; b < nodes; ++b) {
        const Topology::Path fwd = topo.route(a, b);
        const Topology::Path rev = topo.route(b, a);
        ASSERT_EQ(fwd.hops, rev.hops);
        for (std::uint32_t i = 0; i < fwd.hops; ++i) {
          const auto& lf = topo.link(fwd.link[i]);
          const auto& lr = topo.link(rev.link[fwd.hops - 1 - i]);
          EXPECT_EQ(lf.from_switch, lr.to_switch);
          EXPECT_EQ(lf.to_switch, lr.from_switch);
        }
      }
    }
  }
}

TEST(Topology, PathsUseOnlyExistingLinksInOrder) {
  // A routed path must walk switch-to-switch contiguously: src's edge
  // switch first, dst's edge switch last.
  const int k = 6;
  const int nodes = k * k * k / 4;
  Simulation s;
  Topology topo(&s, TopologySpec::fat_tree(k), nodes);
  for (int a = 0; a < nodes; ++a) {
    for (int b = 0; b < nodes; ++b) {
      const Topology::Path p = topo.route(a, b);
      if (p.hops == 0) continue;
      ASSERT_LT(p.link[0], topo.link_count());
      EXPECT_EQ(topo.link(p.link[0]).from_switch, topo.edge_switch_of(a));
      EXPECT_EQ(topo.link(p.link[p.hops - 1]).to_switch,
                topo.edge_switch_of(b));
      for (std::uint32_t i = 0; i + 1 < p.hops; ++i) {
        ASSERT_LT(p.link[i + 1], topo.link_count());
        EXPECT_EQ(topo.link(p.link[i]).to_switch,
                  topo.link(p.link[i + 1]).from_switch)
            << a << "->" << b << " hop " << i << " is discontiguous";
      }
    }
  }
}

TEST(Topology, FatTreeLinkCount) {
  // k pods x k/2 edges x k/2 aggs x 2 directions at the edge tier, plus
  // k pods x k/2 aggs x k/2 core legs x 2 at the core tier = k^3.
  for (const int k : {4, 6, 8}) {
    Simulation s;
    Topology topo(&s, TopologySpec::fat_tree(k), k * k * k / 4);
    EXPECT_EQ(topo.link_count(), static_cast<std::size_t>(k * k * k));
  }
}

TEST(Topology, OversubscriptionCapacityContract) {
  // Aggregate host bandwidth under an edge = oversubscription x the
  // edge's uplink bandwidth, for several ratios.
  for (const int r : {1, 2, 4}) {
    const int k = 4;
    Simulation s;
    TopologySpec spec = TopologySpec::fat_tree(k, r);
    Topology topo(&s, spec, k * k * k / 4);
    const double host_bps =
        1e12 / static_cast<double>(kHostLink.ps_per_byte());
    const double hosts_under_edge = k / 2.0;
    for (int e = 0; e < topo.edge_switch_count(); ++e) {
      EXPECT_NEAR(hosts_under_edge * host_bps,
                  r * topo.edge_uplink_bytes_per_sec(e),
                  1e-3 * hosts_under_edge * host_bps)
          << "fat_tree k=" << k << " r=" << r << " edge " << e;
    }
  }
}

TEST(Topology, TraverseChargesEveryLinkOnThePath) {
  // A pipe's wire stage walks the routed path frame by frame: 10,000 B on
  // the SocketVIA profile cross every hop as three 4 KiB-or-less frames.
  Simulation s;
  net::Cluster cluster(&s, 16, NodeConfig{}, TopologySpec::fat_tree(4));
  Topology* topo = cluster.topology();
  ASSERT_NE(topo, nullptr);
  const Topology::Path p = topo->route(0, 15);
  ASSERT_EQ(p.hops, 4u);
  Pipe pipe(&s, &cluster.node(0), &cluster.node(15),
            CalibrationProfile::socket_via(), "xfer");
  s.spawn("xfer", [&] {
    pipe.send(Message{.bytes = 10'000});
    pipe.close();
  });
  s.run();
  for (std::uint32_t i = 0; i < p.hops; ++i) {
    const auto& l = topo->link(p.link[i]);
    EXPECT_EQ(l.c_frames->value(), 3u) << l.name;
    EXPECT_EQ(l.c_bytes->value(), 10'000u) << l.name;
    EXPECT_GT(l.c_busy_ns->value(), 0u) << l.name;
  }
  // Serialization time accumulated once per hop.
  EXPECT_GE(s.now().ns(),
            4 * kHostLink.for_bytes(10'000).ns());
}

TEST(Topology, SharedUplinkContentionQueues) {
  // Two same-edge senders crossing to the same destination edge share the
  // (src + dst)-selected uplink; the later frames must wait.
  Simulation s;
  net::Cluster cluster(&s, 16, NodeConfig{}, TopologySpec::fat_tree(4));
  Topology* topo = cluster.topology();
  ASSERT_NE(topo, nullptr);
  // Nodes 0 and 1 share edge 0; destinations 8 and 11 live in pod 2 and
  // are chosen so both pairs pick the same core ((0+8) % 4 == (1+11) % 4),
  // hence the same first uplink.
  ASSERT_EQ(topo->route(0, 8).link[0], topo->route(1, 11).link[0]);
  const CalibrationProfile profile = CalibrationProfile::socket_via();
  Pipe a(&s, &cluster.node(0), &cluster.node(8), profile, "a");
  Pipe b(&s, &cluster.node(1), &cluster.node(11), profile, "b");
  s.spawn("a", [&] { a.send(Message{.bytes = 100'000}); });
  s.spawn("b", [&] { b.send(Message{.bytes = 100'000}); });
  s.run();
  const auto& shared = topo->link(topo->route(0, 8).link[0]);
  // 25 frames per 100,000 B message, from each pipe.
  EXPECT_EQ(shared.c_frames->value(), 50u);
  EXPECT_GT(shared.c_wait_ns->value(), 0u)
      << "frames of one pipe should have queued behind the other's";
}

TEST(Topology, PipeOverFabricChargesUplinksAndLatency) {
  // End-to-end: a Pipe between cross-pod nodes traverses the fabric (link
  // counters move) and its delivery picks up 4 hops of extra propagation
  // relative to the crossbar.
  const auto run_once = [](const TopologySpec& spec) {
    Simulation s;
    net::Cluster cluster(&s, 16, NodeConfig{}, spec);
    CalibrationProfile profile = CalibrationProfile::socket_via();
    Pipe pipe(&s, &cluster.node(0), &cluster.node(15), profile, "t");
    SimTime latency;
    s.spawn("app", [&] {
      Message m;
      m.bytes = 4096;
      pipe.send(std::move(m));
      auto got = pipe.recv();
      ASSERT_TRUE(got.has_value());
      latency = got->delivered_at - got->sent_at;
    });
    s.run();
    return latency;
  };
  const SimTime flat = run_once(TopologySpec::single_crossbar());
  TopologySpec ft = TopologySpec::fat_tree(4);
  const SimTime routed = run_once(ft);
  // 4 hops of switch latency plus per-hop serialization of one frame.
  const SimTime floor = flat + kHopLatency * 4;
  EXPECT_GE(routed, floor);
}

}  // namespace
}  // namespace sv::net
