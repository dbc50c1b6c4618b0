// Ablation: the Figure 2 tradeoff made explicit — how distribution block
// size moves (i) uncontended partial-update latency and (ii) sustainable
// complete-update rate, per transport.
//
// This is the design space the paper's DR policy navigates: small blocks
// buy latency and granularity; large blocks buy receiver efficiency. The
// crossover region differs between substrates, which is the whole story.
#include <iostream>

#include "common/cli.h"
#include "harness/series.h"
#include "harness/vizbench.h"
#include "vizapp/policy.h"

int main(int argc, char** argv) {
  using namespace sv;
  std::int64_t updates = 5;
  CliParser cli("Ablation: block size vs latency and update rate");
  cli.add_int("updates", &updates, "updates per saturation measurement");
  harness::ObsArtifacts artifacts;
  harness::add_obs_flags(cli, &artifacts);
  if (!cli.parse(argc, argv)) return 1;

  harness::Figure lat("Ablation: idle partial-update latency vs block size",
                      "block (KiB)", "latency (us)");
  harness::Figure rate("Ablation: saturation update rate vs block size",
                       "block (KiB)", "updates per second");
  harness::Figure cap("Ablation: receiver-capacity model vs block size",
                      "block (KiB)", "capacity (MB/s)");
  for (auto transport :
       {net::Transport::kSocketVia, net::Transport::kKernelTcp}) {
    const char* name = net::transport_name(transport);
    auto& l = lat.add_series(name);
    auto& r = rate.add_series(name);
    auto& c = cap.add_series(name);
    const net::CostModel model{
        net::CalibrationProfile::for_transport(transport)};
    for (std::uint64_t kib : {2ULL, 8ULL, 32ULL, 128ULL, 512ULL, 2048ULL}) {
      harness::VizWorkloadConfig cfg;
      cfg.transport = transport;
      cfg.block_bytes = kib * 1024;
      cfg.obs = artifacts;  // each run overwrites; the last swept run remains
      const auto x = static_cast<double>(kib);
      l.add(x, harness::measure_idle_partial_latency(cfg).us());
      r.add(x,
            harness::run_saturation(cfg, static_cast<int>(updates), 1)
                .updates_per_sec);
      c.add(x, viz::receiver_capacity_bps(model, kib * 1024) / 1e6);
    }
  }
  lat.print(std::cout);
  rate.print(std::cout);
  cap.print(std::cout);
  std::cout << "reading: latency grows ~linearly with block size (worse "
               "for TCP); the update rate saturates once per-message "
               "overheads amortize — at a much smaller block for "
               "SocketVIA (the paper's U2 < U1).\n";
  return 0;
}
