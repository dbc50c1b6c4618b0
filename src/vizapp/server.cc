#include "vizapp/server.h"

#include <stdexcept>

namespace sv::viz {

VizApp::VizApp(sim::Simulation* sim, net::Cluster* cluster,
               sockets::SocketFactory* factory, VizConfig config)
    : config_(config), image_(config.image_bytes, config.block_bytes) {
  if (cluster->size() < 3 * config_.copies + 1) {
    throw std::invalid_argument(
        "VizApp: cluster too small for 3 stages x copies + viz node");
  }
  dc::FilterGroup group;
  std::vector<std::size_t> repo_nodes, s1_nodes, s2_nodes;
  std::size_t next = 0;
  for (std::size_t i = 0; i < config_.copies; ++i) repo_nodes.push_back(next++);
  for (std::size_t i = 0; i < config_.copies; ++i) s1_nodes.push_back(next++);
  for (std::size_t i = 0; i < config_.copies; ++i) s2_nodes.push_back(next++);
  const std::size_t viz_node_idx = next;

  const BlockedImage image = image_;
  const std::size_t copies = config_.copies;
  const PerByteCost stage_compute = config_.stage_compute;
  const PerByteCost viz_compute = config_.viz_compute;
  const bool materialize = config_.materialize_payloads;
  group.add_filter(
      "repo",
      [image, copies, materialize] {
        return std::make_unique<RepoFilter>(image, copies,
                                            PerByteCost::zero(), materialize);
      },
      repo_nodes);
  group.add_filter(
      "clip",
      [stage_compute] { return std::make_unique<StageFilter>(stage_compute); },
      s1_nodes);
  group.add_filter(
      "subsample",
      [stage_compute] { return std::make_unique<StageFilter>(stage_compute); },
      s2_nodes);
  group.add_filter(
      "viz",
      [viz_compute, this] {
        auto f = std::make_unique<VizFilter>(viz_compute);
        viz_filter_ = f.get();
        return f;
      },
      {viz_node_idx});
  group.add_stream("repo", "clip", config_.policy);
  group.add_stream("clip", "subsample", config_.policy);
  group.add_stream("subsample", "viz", config_.policy);

  dc::RuntimeOptions opts;
  opts.transport = config_.transport;
  runtime_ = std::make_unique<dc::Runtime>(sim, cluster, factory,
                                           std::move(group), opts);
}

void VizApp::start() { runtime_->start(); }

std::uint64_t VizApp::submit(const Query& q) {
  const std::uint64_t id = next_query_id_++;
  runtime_->submit(dc::Uow{id, q});
  return id;
}

void VizApp::close() { runtime_->close_input(); }

std::optional<std::pair<std::uint64_t, SimTime>> VizApp::wait_done() {
  auto c = runtime_->wait_completion();
  if (!c) return std::nullopt;
  return std::make_pair(c->uow_id, c->at);
}

}  // namespace sv::viz
