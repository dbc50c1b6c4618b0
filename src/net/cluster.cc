#include "net/cluster.h"

#include "common/check.h"

namespace sv::net {
namespace {

// Cores per node: the Dell Precision 420s were dual 1 GHz PIII.
constexpr int kCoresPerNode = 2;

/// Holds every unit of `res` for the stall window `nf`.
sim::Stage hold_stalled(sim::Simulation* sim, NodeFault nf,
                        sim::Resource* res) {
  if (nf.start > sim->now()) co_await sim->sleep(nf.start - sim->now());
  const std::int64_t units = res->capacity();
  for (std::int64_t k = 0; k < units; ++k) co_await res->acquire_stage();
  co_await sim->sleep(nf.duration);
  for (std::int64_t k = 0; k < units; ++k) res->release();
}

}  // namespace

Node::Node(sim::Simulation* sim, int id, const NodeConfig& cfg)
    : sim_(sim),
      id_(id),
      cfg_(cfg),
      name_("node" + std::to_string(id)),
      cpu_(sim, kCoresPerNode, name_ + ".cpu"),
      tx_host_(sim, 1, name_ + ".tx"),
      link_in_(sim, 1, name_ + ".link_in"),
      rx_proto_(sim, 1, name_ + ".rx_proto") {}

void Node::compute(SimTime work) {
  std::int64_t factor = cfg_.slow_factor;
  if (injector_ != nullptr) {
    factor *= injector_->compute_factor(id_, sim_->now());
  }
  cpu_.use(work * factor);
}

Cluster::Cluster(sim::Simulation* sim, int node_count, const NodeConfig& cfg,
                 const TopologySpec& topo)
    : sim_(sim) {
  nodes_.reserve(static_cast<std::size_t>(node_count));
  for (int i = 0; i < node_count; ++i) {
    nodes_.push_back(std::make_unique<Node>(sim, i, cfg));
  }
  if (topo.kind != TopologyKind::kSingleCrossbar) {
    topology_ = std::make_unique<Topology>(sim, topo, node_count);
    for (auto& n : nodes_) {
      n->set_topology(topology_.get());
    }
  }
}

void Cluster::install_faults(const FaultPlan& plan, std::uint64_t seed) {
  SV_ASSERT(injector_ == nullptr, "Cluster::install_faults called twice");
  if (!plan.enabled()) return;
  injector_ = std::make_unique<FaultInjector>(plan, seed,
                                              &sim_->obs().registry);
  for (auto& n : nodes_) {
    n->set_fault_injector(injector_.get());
  }
  for (const NodeFault& nf : plan.nodes) {
    if (!nf.is_stall()) continue;  // slowdowns apply via Node::compute
    SV_ASSERT(nf.node >= 0 &&
                  static_cast<std::size_t>(nf.node) < nodes_.size(),
              "FaultPlan stall window names an unknown node");
    Node& node = *nodes_[static_cast<std::size_t>(nf.node)];
    // One holder stage per resource: each grabs every capacity unit for
    // the window, so compute, sends, inbound DMA and protocol processing
    // all stall — exactly what a hung host looks like to its peers.
    sim::Resource* resources[] = {&node.cpu(), &node.tx_host(),
                                  &node.link_in(), &node.rx_proto()};
    for (sim::Resource* res : resources) {
      sim_->start(hold_stalled(sim_, nf, res));
    }
  }
}

}  // namespace sv::net
