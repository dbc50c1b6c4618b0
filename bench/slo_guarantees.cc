// SLO guarantee evaluation: closed-loop control vs. open-loop collapse
// under faults (DESIGN.md §15).
//
// The paper's guarantee experiments (Figs 7/8) pick the datacutter chunk
// size and replica placement *offline* and show the resulting latency
// bound holds on a healthy LAN. This bench asks the harder operational
// question: what happens when the cluster degrades mid-run? Two runs of
// the identical 16-node open-loop workload under the identical fault plan
// (two nodes compute-degraded for a 50 ms window, Gilbert burst loss on
// every link):
//
//   uncontrolled   the historical behaviour — no admission control, no
//                  adaptive chunking, no replica shifting. Queued updates
//                  pile up behind the degraded replicas and deliver tens
//                  of milliseconds late: p99 blows through the SLO.
//   controlled     slo::Controller watching 5 ms latency windows. It
//                  demotes the degraded replicas (re-routing their
//                  traffic and flushing their queues), throttles the sheddable bulk class, and shrinks the
//                  chunk size — holding delivered-update p99 inside the
//                  target at the cost of explicit, counted shed load.
//
// Every number except wall-clock throughput derives from (config, seed):
// offered/delivered/throttled counts, latency percentiles, the
// controller's action count and the trace digest are exact-match fields
// in BENCH_slo.json (a harness::BenchReport), gated by
// tools/bench_compare.py in CI (slo-smoke) together with the contrast
// itself: controlled p99 held, uncontrolled p99 at least 2x the target.
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
#include "net/fault.h"
#include "net/topology.h"

namespace sv {
namespace {

constexpr int kNodes = 16;
constexpr int kDegradedA = 2;  // also the incast hot node
constexpr int kDegradedB = 3;

harness::SloControlConfig slo_config() {
  harness::SloControlConfig slo;
  slo.window = SimTime::milliseconds(5);
  slo.controller.targets.p99_update_latency = SimTime::milliseconds(5);
  slo.controller.band_high_pct = 100;
  slo.controller.band_low_pct = 60;
  slo.controller.violate_windows = 2;
  slo.controller.recover_windows = 4;
  slo.controller.cooldown = SimTime::milliseconds(10);
  slo.controller.min_window_samples = 8;
  slo.controller.throttle_step_permille = 250;
  slo.controller.min_admit_permille = 250;
  slo.controller.chunk_min_bytes = 1024;
  slo.controller.chunk_max_bytes = 4096;
  slo.controller.demote_latency_pct = 150;
  slo.controller.demote_windows = 2;
  slo.controller.max_demoted = 2;
  slo.controller.demote_hold = SimTime::milliseconds(80);
  return slo;
}

harness::OpenLoopConfig base_config() {
  harness::OpenLoopConfig cfg;
  cfg.transport = net::Transport::kSocketVia;
  cfg.cluster_nodes = kNodes;
  cfg.topology = net::TopologySpec::fat_tree(4);
  cfg.seed = 11;
  cfg.clients = 16'000;
  cfg.arrivals.kind = harness::ArrivalKind::kPoisson;
  cfg.arrivals.rate_per_sec = 2'000.0;
  cfg.update_bytes = 1024;
  cfg.fanout = 4;
  // A fifth of every node's updates redirect onto node 2 — which is one
  // of the nodes the fault plan stalls, so the incast hotspot and the
  // degradation coincide (the worst case replica shifting must handle).
  cfg.incast_fraction = 0.2;
  cfg.hot_node = kDegradedA;
  // Long enough that the controlled run's unavoidable tail — updates
  // already in flight toward the stalled replicas before detection —
  // stays below the 1% quantile: the SLO can be held, not magicked.
  cfg.duration = SimTime::milliseconds(600);

  // Query mix: latency-sensitive interactive queries the SLO protects,
  // plus a 3x-weight bulk update class the controller may shed.
  cfg.classes.push_back({"interactive", 1, 512, /*sheddable=*/false});
  cfg.classes.push_back({"bulk", 3, 4'096, /*sheddable=*/true});

  // Fault plan: nodes 2 and 3 fully stall across [20 ms, 80 ms) — inbound
  // frames queue behind their held resources and deliver only when the
  // window ends, tens of milliseconds late — plus bursty frame loss on
  // every link for the whole run. The uncontrolled run keeps feeding the
  // stalled replicas the entire window; the controlled run demotes them on
  // silence a couple of decision windows in.
  net::NodeFault stall_a;
  stall_a.node = kDegradedA;
  stall_a.start = SimTime::milliseconds(20);
  stall_a.duration = SimTime::milliseconds(60);
  stall_a.slow_factor = 0;
  net::NodeFault stall_b = stall_a;
  stall_b.node = kDegradedB;
  cfg.faults.nodes = {stall_a, stall_b};
  cfg.faults.all_links.loss = 0.002;
  cfg.faults.all_links.burst_continue = 0.5;
  return cfg;
}

harness::ObsArtifacts g_obs;  // --trace-out/--metrics-out/--metrics-every

struct SloRun {
  std::string name;
  bool controlled = false;
  harness::OpenLoopResult result;
  double wall_seconds = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0
               ? static_cast<double>(result.events_fired) / wall_seconds
               : 0;
  }
};

SloRun run_one(bool controlled, const harness::SloControlConfig& slo) {
  harness::OpenLoopConfig cfg = base_config();
  if (controlled) {
    cfg.slo = &slo;
    cfg.obs = g_obs;  // artifacts describe the controlled (last) run
  }
  SloRun r;
  r.name = controlled ? "controlled" : "uncontrolled";
  r.controlled = controlled;
  r.wall_seconds =
      harness::wall_seconds([&] { r.result = harness::run_open_loop(cfg); });
  return r;
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;

  std::string json_path = "BENCH_slo.json";
  CliParser cli(
      "SLO guarantee under faults: the identical degraded 16-node open-loop "
      "run with and without the closed-loop controller; emits "
      "BENCH_slo.json.");
  cli.add_string("json", &json_path, "output JSON path");
  harness::add_obs_flags(cli, &g_obs);
  if (!cli.parse(argc, argv)) return 1;

  const harness::SloControlConfig slo = slo_config();
  const std::int64_t target_ns = slo.controller.targets.p99_update_latency.ns();

  std::vector<SloRun> runs;
  runs.push_back(run_one(/*controlled=*/false, slo));
  runs.push_back(run_one(/*controlled=*/true, slo));

  for (const SloRun& r : runs) {
    std::printf(
        "%-12s | %7llu offered %7llu delivered %6llu drops %6llu shed | "
        "p50 %9.0f ns p99 %9.0f ns %s | %llu actions (%llu demote) | "
        "%9.0f ev/s\n",
        r.name.c_str(), static_cast<unsigned long long>(r.result.offered),
        static_cast<unsigned long long>(r.result.delivered),
        static_cast<unsigned long long>(r.result.drops),
        static_cast<unsigned long long>(r.result.throttled),
        r.result.update_latency.percentile(50.0),
        r.result.update_latency.percentile(99.0),
        r.result.update_latency.percentile(99.0) <=
                static_cast<double>(target_ns)
            ? "HELD"
            : "VIOLATED",
        static_cast<unsigned long long>(r.result.slo_actions),
        static_cast<unsigned long long>(r.result.slo_demotions),
        r.events_per_sec());
  }

  // The controlled run's decision trail, for the human reading the bench.
  for (const SloRun& r : runs) {
    if (r.result.slo_action_log.empty()) continue;
    std::printf("%s action log (<ns> <kind> <node> <value>):\n%s",
                r.name.c_str(), r.result.slo_action_log.c_str());
    std::uint64_t late = 0;
    for (const double v : r.result.update_latency.raw()) {
      if (v > static_cast<double>(target_ns)) ++late;
    }
    std::printf("%s: %llu of %llu samples above target\n", r.name.c_str(),
                static_cast<unsigned long long>(late),
                static_cast<unsigned long long>(
                    r.result.update_latency.count()));
  }

  harness::BenchReport report("slo", /*quick=*/false);
  for (const SloRun& r : runs) {
    const harness::OpenLoopResult& o = r.result;
    // No --quick: the scenario is already CI-sized, so CI runs every row.
    report.row(r.name, /*in_quick=*/true)
        .exact("controlled", r.controlled)
        .exact("target_p99_ns", target_ns)
        .exact("offered", o.offered)
        .exact("delivered", o.delivered)
        .exact("drops", o.drops)
        .exact("throttled", o.throttled)
        .exact("p50_update_ns", std::llround(o.update_latency.percentile(50.0)))
        .exact("p99_update_ns", std::llround(o.update_latency.percentile(99.0)))
        .exact("slo_actions", o.slo_actions)
        .exact("demotions", o.slo_demotions)
        .exact("promotions", o.slo_promotions)
        .exact("final_admit_permille", o.final_admit_permille)
        .exact("final_chunk_bytes", o.final_chunk_bytes)
        .exact("events_fired", o.events_fired)
        .ratio("events_per_sec", r.events_per_sec())
        .info("wall_seconds", r.wall_seconds, 4)
        .exact("trace_digest", o.trace_digest);
  }
  // The guarantee the bench exists to show, on any host: under the same
  // faults the controller holds the SLO, acting at least once, while the
  // uncontrolled run violates it by at least 2x.
  const SloRun& uncontrolled = runs[0];
  const SloRun& controlled = runs[1];
  const auto target = static_cast<double>(target_ns);
  report.check("held",
               controlled.result.update_latency.percentile(99.0) <= target);
  report.check("controlled_acted", controlled.result.slo_actions >= 1);
  report.check("uncontrolled_p99_ge_2x_target",
               uncontrolled.result.update_latency.percentile(99.0) >=
                   2 * target);
  report.write(json_path);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
