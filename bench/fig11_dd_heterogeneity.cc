// Figure 11 reproduction: execution time under Demand-Driven scheduling on
// a cluster whose slow node degrades stochastically.
//
// A 16 MB dataset is distributed demand-driven to three workers; one
// worker processes any given block at 1/n speed with probability p.
// Legend SocketVIA(n)/TCP(n) uses the transport's pipelining block size
// (2 KB / 16 KB). Paper shape: execution time grows with p and n, but DD's
// routing keeps TCP close to SocketVIA — dynamic scheduling masks the
// substrate gap (while the guarantee experiments show where it cannot).
#include <iostream>

#include "common/cli.h"
#include "harness/obsout.h"
#include "harness/series.h"
#include "vizapp/loadbalance.h"

int main(int argc, char** argv) {
  using namespace sv;
  std::int64_t total_mib = 16;
  // The paper's Figure 11 is computation-dominated for *both* transports
  // (their execution times sit near the pure-compute bound). With our
  // calibrated TCP sustaining ~64 MB/s from one balancer to three workers,
  // that regime requires >= ~50 ns/B of per-block processing; we default to
  // 60 ns/B and note the substitution in EXPERIMENTS.md. The heterogeneity
  // *mechanism* (stochastic slowdown + DD routing) is unchanged.
  std::int64_t compute_ns_per_byte = 60;
  bool quick = false;
  CliParser cli("Figure 11: DD scheduling vs stochastic heterogeneity");
  cli.add_int("total-mib", &total_mib, "dataset size (MiB)");
  cli.add_int("compute-ns", &compute_ns_per_byte,
              "worker computation cost (ns per byte)");
  cli.add_flag("quick", &quick, "fewer probability points");
  harness::ObsArtifacts artifacts;
  harness::add_obs_flags(cli, &artifacts);
  if (!cli.parse(argc, argv)) return 1;

  harness::Figure fig("Figure 11: Effect of heterogeneity (Demand-Driven)",
                      "probability of being slow (%)",
                      "execution time (us)");
  const std::vector<double> probs =
      quick ? std::vector<double>{10, 50, 90}
            : std::vector<double>{10, 20, 30, 40, 50, 60, 70, 80, 90};

  struct Line {
    net::Transport transport;
    std::uint64_t block;
    int factor;
    std::string name;
  };
  std::vector<Line> lines;
  for (int n : {2, 4, 8}) {
    lines.push_back({net::Transport::kSocketVia, 2 * 1024, n,
                     "SocketVIA(" + std::to_string(n) + ")"});
  }
  for (int n : {2, 4, 8}) {
    lines.push_back({net::Transport::kKernelTcp, 16 * 1024, n,
                     "TCP(" + std::to_string(n) + ")"});
  }

  for (const auto& line : lines) {
    auto& series = fig.add_series(line.name);
    for (double p : probs) {
      viz::LoadBalanceConfig cfg;
      cfg.transport = line.transport;
      cfg.block_bytes = line.block;
      cfg.total_bytes = static_cast<std::uint64_t>(total_mib) * 1024 * 1024;
      cfg.policy = dc::SchedPolicy::kDemandDriven;
      cfg.compute = PerByteCost::nanos_per_byte(compute_ns_per_byte);
      cfg.slow_worker = 0;
      cfg.slow_factor = line.factor;
      cfg.slow_probability = p / 100.0;
      cfg.seed = 99;
      cfg.obs = artifacts;  // each run overwrites; the last swept run remains
      const auto r = viz::run_load_balance(cfg);
      series.add(p, r.exec_time.us());
    }
  }

  fig.print(std::cout, 0);
  std::cout << "paper shape: execution time rises with p and the factor; "
               "demand-driven scheduling keeps TCP close to SocketVIA\n";
  return 0;
}
