// Figure 8 reproduction: maximum updates-per-second under a partial-update
// latency guarantee.
//
// For each latency bound the block size is the largest whose uncontended
// partial-update path stays within the bound (per that transport's
// calibrated curves); the pipeline then runs complete updates closed-loop
// and the sustained rate is reported. Panel (a) no computation, panel (b)
// 18 ns/B linear computation.
//
// Paper shapes: TCP drops out at the 100 us bound while SocketVIA stays
// near its peak; >6x / >8x (DR) improvement without computation, up to 4x
// with computation (where compute, not the network, caps SocketVIA).
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
constexpr int kPipelineHops = 3;  // repo -> clip -> subsample -> viz

struct Panel {
  const char* title;
  PerByteCost compute;
};

void run_panel(const Panel& panel, const std::vector<double>& bounds_us,
               int updates, const harness::ObsArtifacts& artifacts) {
  const net::CostModel tcp_model{net::CalibrationProfile::kernel_tcp()};
  const net::CostModel svia_model{net::CalibrationProfile::socket_via()};

  harness::Figure fig(panel.title, "latency guarantee (us)",
                      "updates per second");
  auto& s_tcp = fig.add_series("TCP");
  auto& s_svia = fig.add_series("SocketVIA");
  auto& s_dr = fig.add_series("SocketVIA (with DR)");
  harness::Figure verify(std::string(panel.title) +
                             " [delivered partial latency, us]",
                         "latency guarantee (us)", "measured idle latency");
  auto& v_tcp = verify.add_series("TCP");
  auto& v_dr = verify.add_series("SocketVIA (with DR)");

  for (double bound_us : bounds_us) {
    const SimTime bound =
        SimTime::nanoseconds(static_cast<std::int64_t>(bound_us * 1e3));
    // The guarantee is transport-level (as in the paper): the chunk's
    // uncontended transfer path must fit the bound; computation shows up
    // in the achieved rate, not the block choice.
    const std::uint64_t tcp_block = viz::block_for_latency_bound(
        tcp_model, bound, kPipelineHops,
        viz::default_hop_overhead(tcp_model));
    const std::uint64_t dr_block = viz::block_for_latency_bound(
        svia_model, bound, kPipelineHops,
        viz::default_hop_overhead(svia_model));

    harness::VizWorkloadConfig cfg;
    cfg.image_bytes = kImage;
    cfg.compute = panel.compute;
    cfg.obs = artifacts;  // each run overwrites; the last swept run remains

    if (tcp_block > 0) {
      cfg.transport = net::Transport::kKernelTcp;
      cfg.block_bytes = tcp_block;
      auto r = run_saturation(cfg, updates);
      s_tcp.add(bound_us, r.updates_per_sec);
      v_tcp.add(bound_us, r.uncontended_partial_latency.us());
      // SocketVIA with TCP's blocks.
      cfg.transport = net::Transport::kSocketVia;
      auto rs = run_saturation(cfg, updates);
      s_svia.add(bound_us, rs.updates_per_sec);
    }
    if (dr_block > 0) {
      cfg.transport = net::Transport::kSocketVia;
      cfg.block_bytes = dr_block;
      auto rd = run_saturation(cfg, updates);
      s_dr.add(bound_us, rd.updates_per_sec);
      v_dr.add(bound_us, rd.uncontended_partial_latency.us());
    }
  }
  fig.print(std::cout);
  verify.print(std::cout);
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;
  std::int64_t updates = 6;
  bool quick = false;
  CliParser cli("Figure 8: updates per second with latency guarantees");
  cli.add_int("updates", &updates, "complete updates measured per point");
  cli.add_flag("quick", &quick, "fewer x points");
  harness::ObsArtifacts artifacts;
  harness::add_obs_flags(cli, &artifacts);
  if (!cli.parse(argc, argv)) return 1;

  const std::vector<double> bounds =
      quick ? std::vector<double>{1000, 400, 100}
            : std::vector<double>{1000, 900, 800, 700, 600, 500,
                                  400,  300, 200, 100};
  Panel a{"Figure 8(a): Updates/sec vs latency guarantee (no computation)",
          PerByteCost::zero()};
  Panel b{"Figure 8(b): Updates/sec vs latency guarantee (linear "
          "computation, 18 ns/B)",
          viz::virtual_microscope_compute()};
  run_panel(a, bounds, static_cast<int>(updates), artifacts);
  run_panel(b, bounds, static_cast<int>(updates), artifacts);
  std::cout << "paper shapes: TCP absent at the 100us bound; "
               "SocketVIA(DR) holds near-peak rate across bounds; with "
               "computation the gap narrows to ~4x (compute-bound viz)\n";
  return 0;
}
