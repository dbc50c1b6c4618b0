// The simulated cluster: nodes with CPU and network-path resources.
//
// Mirrors the paper's testbed shape: N nodes, each with two cores and a
// NIC. Per node we model four contended service points:
//   cpu      - application computation (filters), capacity = cores
//   tx_host  - sender-side host path (syscall/copy or doorbell), capacity 1
//   link_in  - inbound link/DMA path at the receiver, capacity 1
//   rx_proto - receiver-side protocol processing, capacity 1
// Concurrent connections into one node share these, which is what makes a
// busy visualization server a bottleneck in the paper's experiments.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/fault.h"
#include "net/topology.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace sv::net {

struct NodeConfig {
  /// Relative CPU speed divisor; 1 = nominal. The heterogeneity experiments
  /// (Figures 10/11) slow a node by running computations `slow_factor`x
  /// longer. This is the static factor; dynamic slowdown is applied by the
  /// application layer.
  int slow_factor = 1;
};

class Node {
 public:
  Node(sim::Simulation* sim, int id, const NodeConfig& cfg);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const NodeConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Simulation& sim() const { return *sim_; }

  /// Runs `work` of computation on this node (blocks the calling process
  /// for the scaled duration while holding a core). Any active fault-plan
  /// slowdown window multiplies the duration.
  void compute(SimTime work);

  /// The cluster's fault injector, or nullptr when no faults are installed.
  /// Transports crossing this node consult it per frame.
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// The switch fabric this node attaches to, or nullptr for the implicit
  /// single crossbar (the historical model). Pipes crossing this node
  /// traverse it per frame.
  [[nodiscard]] Topology* topology() const { return topology_; }
  void set_topology(Topology* topology) { topology_ = topology; }

  sim::Resource& cpu() { return cpu_; }
  sim::Resource& tx_host() { return tx_host_; }
  sim::Resource& link_in() { return link_in_; }
  sim::Resource& rx_proto() { return rx_proto_; }

 private:
  sim::Simulation* sim_;
  int id_;
  NodeConfig cfg_;
  std::string name_;
  FaultInjector* injector_ = nullptr;
  Topology* topology_ = nullptr;
  sim::Resource cpu_;
  sim::Resource tx_host_;
  sim::Resource link_in_;
  sim::Resource rx_proto_;
};

class Cluster {
 public:
  /// `topo` selects the switch fabric above the hosts. The default
  /// single-crossbar spec builds no Topology object at all, so the executed
  /// event schedule (and every digest pin) is identical to the
  /// pre-topology fabric.
  Cluster(sim::Simulation* sim, int node_count,
          const NodeConfig& cfg = NodeConfig{},
          const TopologySpec& topo = TopologySpec{});

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] sim::Simulation& sim() { return *sim_; }

  /// Installs a fault plan: every node gets a pointer to the (seeded)
  /// injector, and each full-stall window in the plan starts holder
  /// stages that pin the node's resources for the window's duration, so
  /// all transports through the node stall naturally. A disabled plan is a
  /// no-op (the baseline event schedule is untouched). Call at most once,
  /// before traffic starts.
  void install_faults(const FaultPlan& plan, std::uint64_t seed);

  /// The installed injector, or nullptr.
  [[nodiscard]] FaultInjector* fault_injector() const {
    return injector_.get();
  }

  /// The explicit switch fabric, or nullptr for the single crossbar.
  [[nodiscard]] Topology* topology() const { return topology_.get(); }

 private:
  sim::Simulation* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<Topology> topology_;
};

}  // namespace sv::net
