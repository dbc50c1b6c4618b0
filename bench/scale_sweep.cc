// Scale-out sweep: open-loop load over explicit fat-tree fabrics
// (DESIGN.md §13).
//
// Each datapoint runs harness::run_open_loop on a k-ary fat-tree at
// 16/64/256 hosts, for oversubscription ratios 1 and 4, over both the
// VIA-style and kernel-TCP transports. The workload is the deterministic
// open-loop client model: thousands of modeled clients per node submitting
// updates through the per-node SendMux, routed hop-by-hop through shared
// switch links. Reported per point:
//
//   events_per_sec   engine events per wall-second (simulator throughput)
//   p50/p99 update   enqueue-to-delivery latency percentiles (model output;
//                    host-independent, reproducible from (config, seed))
//   trace_digest     determinism evidence for the exact executed schedule
//
// Results go to stdout and BENCH_scale_sweep.json at the repo root (a
// harness::BenchReport). CI's scale-smoke job runs `--quick` (the 64-node
// subset) and gates it with tools/bench_compare.py: model outputs exactly,
// events/sec against the committed baseline, and the machine-independent
// invariant p99 >= p50.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/units.h"
#include "harness/bench_report.h"
#include "harness/openloop.h"
#include "net/calibration.h"
#include "net/topology.h"

namespace sv {
namespace {

constexpr int kQuickNodes = 64;  // the --quick subset

struct SweepPoint {
  std::string topology;
  int nodes = 0;
  int oversubscription = 1;
  net::Transport transport = net::Transport::kSocketVia;
  harness::OpenLoopResult result;
  double wall_seconds = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0
               ? static_cast<double>(result.events_fired) / wall_seconds
               : 0;
  }
};

harness::OpenLoopConfig point_config(int nodes, int oversub,
                                     net::Transport tr) {
  harness::OpenLoopConfig cfg;
  cfg.transport = tr;
  cfg.cluster_nodes = nodes;
  const int k = nodes <= 16 ? 4 : (nodes <= 128 ? 8 : 12);
  cfg.topology = net::TopologySpec::fat_tree(k, oversub);
  cfg.seed = 7;
  // ~1000 modeled clients per node; 16k at the small end, 256k at the top.
  cfg.clients = static_cast<std::uint64_t>(nodes) * 1000;
  cfg.arrivals.kind = harness::ArrivalKind::kMmpp;
  cfg.arrivals.rate_per_sec = 2'000.0;
  cfg.update_bytes = 1024;
  cfg.fanout = 4;
  cfg.incast_fraction = 0.05;
  cfg.hot_node = 1;
  cfg.duration = SimTime::milliseconds(20);
  return cfg;
}

SweepPoint run_point(int nodes, int oversub, net::Transport tr) {
  const harness::OpenLoopConfig cfg = point_config(nodes, oversub, tr);
  SweepPoint p;
  p.topology = "fat_tree_k" + std::to_string(cfg.topology.fat_tree_k);
  p.nodes = nodes;
  p.oversubscription = oversub;
  p.transport = tr;
  p.wall_seconds =
      harness::wall_seconds([&] { p.result = harness::run_open_loop(cfg); });
  return p;
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;

  bool quick = false;
  std::string json_path = "BENCH_scale_sweep.json";
  CliParser cli(
      "Open-loop scale sweep over fat-tree fabrics: 16/64/256 nodes x "
      "oversubscription x transport; emits BENCH_scale_sweep.json.");
  cli.add_flag("quick", &quick,
               "64-node subset only (CI scale-smoke)");
  cli.add_string("json", &json_path, "output JSON path");
  if (!cli.parse(argc, argv)) return 1;

  const std::vector<int> node_counts =
      quick ? std::vector<int>{kQuickNodes} : std::vector<int>{16, 64, 256};
  const std::vector<int> ratios = {1, 4};
  const std::vector<net::Transport> transports = {
      net::Transport::kSocketVia, net::Transport::kKernelTcp};

  harness::BenchReport report("scale_sweep", quick);
  bool tail_above_median = true;
  for (const int nodes : node_counts) {
    for (const int r : ratios) {
      for (const net::Transport tr : transports) {
        const SweepPoint p = run_point(nodes, r, tr);
        const double p50 = p.result.update_latency.percentile(50.0);
        const double p99 = p.result.update_latency.percentile(99.0);
        std::printf(
            "%-12s x%d %-5s %4d nodes | %7llu offered %7llu delivered "
            "%5llu drops | p50 %9.0f ns p99 %9.0f ns | %9.0f ev/s\n",
            p.topology.c_str(), p.oversubscription,
            net::transport_name(p.transport), p.nodes,
            static_cast<unsigned long long>(p.result.offered),
            static_cast<unsigned long long>(p.result.delivered),
            static_cast<unsigned long long>(p.result.drops), p50, p99,
            p.events_per_sec());
        tail_above_median = tail_above_median && p99 >= p50;
        const std::string transport = net::transport_name(p.transport);
        const std::string name = p.topology + "_x" +
                                 std::to_string(p.oversubscription) + "_" +
                                 transport;
        report.row(name, nodes == kQuickNodes)
            .exact("topology", p.topology)
            .exact("nodes", p.nodes)
            .exact("oversubscription", p.oversubscription)
            .exact("transport", transport)
            .exact("offered", p.result.offered)
            .exact("delivered", p.result.delivered)
            .exact("drops", p.result.drops)
            .exact("p50_update_ns", std::llround(p50))
            .exact("p99_update_ns", std::llround(p99))
            .exact("events_fired", p.result.events_fired)
            .ratio("events_per_sec", p.events_per_sec())
            .info("wall_seconds", p.wall_seconds, 4)
            .exact("trace_digest", p.result.trace_digest);
      }
    }
  }
  report.check("p99_ge_p50", tail_above_median);

  report.write(json_path);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
