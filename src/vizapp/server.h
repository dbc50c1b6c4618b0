// The visualization-server application: assembles the paper's 4-stage
// pipeline (Figure 5) on the cluster and provides a query interface.
//
//   repo x copies  -->  stage1 x copies  -->  stage2 x copies  -->  viz x 1
//
// Each stage's copies are placed on distinct nodes; the visualization
// filter runs alone on its node (the client's workstation in the paper).
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "datacutter/runtime.h"
#include "vizapp/filters.h"
#include "vizapp/image.h"
#include "vizapp/query.h"

namespace sv::viz {

struct VizConfig {
  net::Transport transport = net::Transport::kSocketVia;
  std::uint64_t image_bytes = 16 * 1024 * 1024;  // one image per the paper
  std::uint64_t block_bytes = 256 * 1024;        // distribution block size
  std::size_t copies = 3;  // transparent copies of repo/stage filters
  /// Linear computation at the processing stages and the viz server
  /// ("no computation" = zero; "linear computation" = 18 ns/B).
  PerByteCost stage_compute = PerByteCost::zero();
  PerByteCost viz_compute = PerByteCost::zero();
  dc::SchedPolicy policy = dc::SchedPolicy::kDemandDriven;
  /// Generate real pixel payloads at the repositories (verified at the viz
  /// filter); timing is unaffected, used for integrity testing.
  bool materialize_payloads = false;
};

/// The standard linear computation the paper measured for the Virtual
/// Microscope: 18 ns per byte.
[[nodiscard]] constexpr PerByteCost virtual_microscope_compute() {
  return PerByteCost::nanos_per_byte(18);
}

class VizApp {
 public:
  /// Requires a cluster with at least 3*copies + 1 nodes; the stages occupy
  /// consecutive nodes from node 0, the viz filter the node after them.
  VizApp(sim::Simulation* sim, net::Cluster* cluster,
         sockets::SocketFactory* factory, VizConfig config);

  /// Builds connections and spawns the pipeline. Call once.
  void start();

  /// Submits a query; returns its UOW id.
  std::uint64_t submit(const Query& q);
  /// No further queries; pipeline drains and shuts down.
  void close();

  /// Blocking wait (from a process) for the next completed query.
  /// Returns (uow id, completion time).
  std::optional<std::pair<std::uint64_t, SimTime>> wait_done();

  [[nodiscard]] const BlockedImage& image() const { return image_; }
  [[nodiscard]] const VizConfig& config() const { return config_; }
  [[nodiscard]] dc::Runtime& runtime() { return *runtime_; }
  /// The sink filter instance (valid after start(); single copy).
  [[nodiscard]] const VizFilter* viz_filter() const { return viz_filter_; }

 private:
  VizConfig config_;
  BlockedImage image_;
  std::unique_ptr<dc::Runtime> runtime_;
  std::uint64_t next_query_id_ = 1;
  VizFilter* viz_filter_ = nullptr;
};

}  // namespace sv::viz
