// Figure 7 reproduction: average partial-update latency under an
// updates-per-second guarantee.
//
// For each target rate the distribution block size is chosen by the
// paper's policy: TCP's blocks from TCP's calibrated curves; "SocketVIA"
// runs SocketVIA with TCP's blocks (no repartitioning); "SocketVIA (with
// DR)" repartitions using SocketVIA's own curves. Panel (a) has no
// computation; panel (b) adds the Virtual Microscope's 18 ns/B.
//
// Paper shapes to reproduce: TCP cannot meet more than ~3.25 updates/sec
// (a) or ~3 (b); latency improves >3.5x without DR and >10x with DR (a);
// >4x and >12x (b).
#include <iostream>

#include "common/cli.h"
#include "harness/series.h"
#include "harness/vizbench.h"
#include "vizapp/server.h"
#include "vizapp/policy.h"

namespace sv {
namespace {

using namespace sv::literals;

constexpr std::uint64_t kImage = 16 * 1024 * 1024;

struct Panel {
  const char* title;
  PerByteCost compute;
  std::vector<double> rates;
};

void run_panel(const Panel& panel, int updates,
               const harness::ObsArtifacts& artifacts) {
  const net::CostModel tcp_model{net::CalibrationProfile::kernel_tcp()};
  const net::CostModel svia_model{net::CalibrationProfile::socket_via()};

  harness::Figure fig(panel.title, "updates per second",
                      "avg partial-update latency (us)");
  auto& s_tcp = fig.add_series("TCP");
  auto& s_svia = fig.add_series("SocketVIA");
  auto& s_dr = fig.add_series("SocketVIA (with DR)");
  harness::Figure blocks(std::string(panel.title) + " [chosen block sizes]",
                         "updates per second", "block (bytes)");
  auto& b_tcp = blocks.add_series("TCP");
  auto& b_dr = blocks.add_series("SocketVIA (with DR)");

  for (double ups : panel.rates) {
    const std::uint64_t tcp_block = viz::block_for_update_rate_with_compute(
        tcp_model, ups, kImage, panel.compute);
    const std::uint64_t dr_block = viz::block_for_update_rate_with_compute(
        svia_model, ups, kImage, panel.compute);
    b_tcp.add(ups, static_cast<double>(tcp_block));
    b_dr.add(ups, static_cast<double>(dr_block));

    harness::VizWorkloadConfig cfg;
    cfg.image_bytes = kImage;
    cfg.compute = panel.compute;
    cfg.obs = artifacts;  // each run overwrites; the last swept run remains

    if (tcp_block < kImage) {  // TCP feasible at this rate
      cfg.transport = net::Transport::kKernelTcp;
      cfg.block_bytes = tcp_block;
      auto r = run_paced_updates(cfg, ups, updates);
      if (r.met_target && !r.partial_latencies.empty()) {
        s_tcp.add(ups, r.partial_latencies.mean() / 1e3);
      }
      // SocketVIA with TCP's (unrepartitioned) blocks.
      cfg.transport = net::Transport::kSocketVia;
      auto rs = run_paced_updates(cfg, ups, updates);
      if (rs.met_target && !rs.partial_latencies.empty()) {
        s_svia.add(ups, rs.partial_latencies.mean() / 1e3);
      }
    }
    if (dr_block < kImage) {
      cfg.transport = net::Transport::kSocketVia;
      cfg.block_bytes = dr_block;
      auto rd = run_paced_updates(cfg, ups, updates);
      if (rd.met_target && !rd.partial_latencies.empty()) {
        s_dr.add(ups, rd.partial_latencies.mean() / 1e3);
      }
    }
  }
  fig.print(std::cout);
  blocks.print(std::cout, 0);
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;
  std::int64_t updates = 5;
  bool quick = false;
  CliParser cli(
      "Figure 7: average latency with updates-per-second guarantees");
  cli.add_int("updates", &updates, "complete updates measured per point");
  cli.add_flag("quick", &quick, "fewer x points");
  harness::ObsArtifacts artifacts;
  harness::add_obs_flags(cli, &artifacts);
  if (!cli.parse(argc, argv)) return 1;

  Panel a{"Figure 7(a): Avg latency vs updates/sec (no computation)",
          PerByteCost::zero(),
          quick ? std::vector<double>{2.0, 3.0, 3.5, 4.0}
                : std::vector<double>{2.0, 2.5, 3.0, 3.25, 3.5, 4.0}};
  Panel b{"Figure 7(b): Avg latency vs updates/sec (linear computation, "
          "18 ns/B)",
          viz::virtual_microscope_compute(),
          quick ? std::vector<double>{2.0, 2.75, 3.25}
                : std::vector<double>{2.0, 2.5, 2.75, 3.0, 3.25}};
  run_panel(a, static_cast<int>(updates), artifacts);
  run_panel(b, static_cast<int>(updates), artifacts);
  std::cout << "paper shapes: TCP absent beyond ~3.25 (a) / ~3 (b) "
               "updates/sec; SocketVIA(DR) sustains the full range with "
               ">10x (a) / >12x (b) lower latency than TCP\n";
  return 0;
}
