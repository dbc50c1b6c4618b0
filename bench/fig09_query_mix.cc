// Figure 9 reproduction: average response time under a mix of zoom (4
// chunks) and complete-update queries, for dataset partitionings of
// {none, 8, 64} chunks, over TCP and SocketVIA.
//
// Paper shapes: without partitioning, response time is flat in the mix
// (every query fetches everything) and reflects only the raw transport
// gap; with partitioning, TCP's response time rises much faster with the
// complete-update fraction, so for a 150 ms budget at 64 partitions TCP
// tolerates ~60% complete updates where SocketVIA tolerates ~90%.
#include <iostream>

#include "common/cli.h"
#include "harness/series.h"
#include "harness/vizbench.h"
#include "vizapp/server.h"

namespace sv {
namespace {

constexpr std::uint64_t kImage = 16 * 1024 * 1024;

struct Panel {
  const char* title;
  PerByteCost compute;
};

void run_panel(const Panel& panel, const std::vector<double>& fractions,
               int queries, const harness::ObsArtifacts& artifacts) {
  harness::Figure fig(panel.title, "fraction of complete-update queries",
                      "avg response time (ms)");
  struct Config {
    const char* name;
    net::Transport transport;
    std::uint64_t partitions;
  };
  const Config configs[] = {
      {"No Partitions (SocketVIA)", net::Transport::kSocketVia, 1},
      {"8 Partitions (SocketVIA)", net::Transport::kSocketVia, 8},
      {"64 Partitions (SocketVIA)", net::Transport::kSocketVia, 64},
      {"No Partitions (TCP)", net::Transport::kKernelTcp, 1},
      {"8 Partitions (TCP)", net::Transport::kKernelTcp, 8},
      {"64 Partitions (TCP)", net::Transport::kKernelTcp, 64},
  };
  for (const auto& c : configs) {
    auto& series = fig.add_series(c.name);
    for (double f : fractions) {
      harness::VizWorkloadConfig cfg;
      cfg.transport = c.transport;
      cfg.image_bytes = kImage;
      cfg.block_bytes = kImage / c.partitions;
      cfg.compute = panel.compute;
      cfg.seed = 1234;
      cfg.obs = artifacts;  // each run overwrites; the last swept run remains
      auto samples = harness::run_query_mix(cfg, f, queries);
      series.add(f, samples.mean() / 1e6);  // ns -> ms
    }
  }
  fig.print(std::cout);
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;
  std::int64_t queries = 12;
  bool quick = false;
  bool full = false;
  CliParser cli("Figure 9: query-mix response time vs partitioning");
  cli.add_int("queries", &queries, "queries per point");
  cli.add_flag("quick", &quick, "fewer x points");
  cli.add_flag("full", &full, "the paper's full 0.1-step x axis");
  harness::ObsArtifacts artifacts;
  harness::add_obs_flags(cli, &artifacts);
  if (!cli.parse(argc, argv)) return 1;

  const std::vector<double> fractions =
      quick ? std::vector<double>{0.0, 0.5, 1.0}
      : full ? std::vector<double>{0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                   0.6, 0.7, 0.8, 0.9, 1.0}
             : std::vector<double>{0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  Panel a{"Figure 9(a): Query mix vs response time (no computation)",
          PerByteCost::zero()};
  Panel b{"Figure 9(b): Query mix vs response time (linear computation, "
          "18 ns/B)",
          viz::virtual_microscope_compute()};
  run_panel(a, fractions, static_cast<int>(queries), artifacts);
  run_panel(b, fractions, static_cast<int>(queries), artifacts);
  std::cout << "paper shapes: flat lines without partitioning; with 64 "
               "partitions TCP's slope is much steeper than SocketVIA's, "
               "so a 150 ms budget admits ~60% vs ~90% complete updates\n";
  return 0;
}
