// Figure 10 reproduction: load-balancer reaction time to heterogeneity
// under Round-Robin scheduling.
//
// The balancer distributes pipelining blocks (16 KB for TCP, 2 KB for
// SocketVIA — the perfect-pipelining sizes of Section 5.2.3) to three
// workers, one slowed by the heterogeneity factor. The balancer's
// blindness window after sending a block to the slow node is that block's
// service time there — the paper's "reaction time". SocketVIA's 8x
// smaller pipelining block yields an ~8x faster reaction.
#include <iostream>

#include "common/cli.h"
#include "harness/obsout.h"
#include "harness/series.h"
#include "vizapp/loadbalance.h"

namespace sv {
namespace {

using namespace sv::literals;

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;
  std::int64_t total_mib = 8;
  CliParser cli("Figure 10: RR load-balancer reaction time vs heterogeneity");
  cli.add_int("total-mib", &total_mib, "dataset size (MiB)");
  harness::ObsArtifacts artifacts;
  harness::add_obs_flags(cli, &artifacts);
  if (!cli.parse(argc, argv)) return 1;

  harness::Figure fig("Figure 10: Load balancer reaction time (Round-Robin)",
                      "factor of heterogeneity", "reaction time (us)");
  auto& s_svia = fig.add_series("SocketVIA");
  auto& s_tcp = fig.add_series("TCP");

  for (int factor : {2, 4, 6, 8, 10}) {
    viz::LoadBalanceConfig cfg;
    cfg.total_bytes = static_cast<std::uint64_t>(total_mib) * 1024 * 1024;
    cfg.policy = dc::SchedPolicy::kRoundRobin;
    cfg.slow_worker = 1;
    cfg.slow_factor = factor;
    cfg.compute = PerByteCost::nanos_per_byte(18);
    cfg.obs = artifacts;  // each run overwrites; the last swept run remains

    cfg.transport = net::Transport::kSocketVia;
    cfg.block_bytes = 2 * 1024;  // SocketVIA pipelining block
    const auto svia = viz::run_load_balance(cfg);
    s_svia.add(factor, svia.slow_service_times.mean() / 1e3);

    cfg.transport = net::Transport::kKernelTcp;
    cfg.block_bytes = 16 * 1024;  // TCP pipelining block
    const auto tcp = viz::run_load_balance(cfg);
    s_tcp.add(factor, tcp.slow_service_times.mean() / 1e3);
  }

  fig.print(std::cout);
  std::cout << "paper shape: reaction time grows linearly with the "
               "factor; SocketVIA reacts ~8x faster (2 KB vs 16 KB "
               "blocks)\n";
  return 0;
}
