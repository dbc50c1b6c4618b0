// Ablation: SocketVIA's credit scheme — credits, chunk size, and credit
// batch vs achieved bandwidth and sender stall behaviour, on the detailed
// (descriptor-level) implementation.
//
// The paper's SocketVIA fixes one operating point; this sweep shows why:
// too few credits starve the wire, tiny chunks burn per-descriptor
// overhead, and batchy credit returns add stalls at small windows.
#include <iostream>

#include "common/cli.h"
#include "harness/obsout.h"
#include "harness/series.h"
#include "net/cluster.h"
#include "sockets/via_socket.h"

namespace sv {
namespace {

double measure_bw(const sockets::ViaSocketOptions& opt, std::uint64_t msg,
                  int iters, const harness::ObsArtifacts& obs) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  harness::begin_obs(s, obs);
  via::Nic nic0(&s, &cluster.node(0)), nic1(&s, &cluster.node(1));
  SimTime elapsed;
  s.spawn("app", [&] {
    auto [a, b] = sockets::DetailedViaSocket::make_pair(nic0, nic1, opt);
    s.spawn("rx", [&s, &elapsed, iters, b = std::move(b)]() mutable {
      const SimTime t0 = s.now();
      for (int i = 0; i < iters; ++i) b->recv();
      elapsed = s.now() - t0;
    });
    for (int i = 0; i < iters; ++i) a->send(net::Message{.bytes = msg});
    a->close_send();
  });
  s.run();
  harness::export_obs(s, obs);
  return throughput_mbps(msg * static_cast<std::uint64_t>(iters), elapsed);
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;
  std::int64_t iters = 100;
  std::int64_t msg_kib = 64;
  CliParser cli("Ablation: SocketVIA credit scheme");
  cli.add_int("iters", &iters, "messages per measurement");
  cli.add_int("msg-kib", &msg_kib, "message size (KiB)");
  harness::ObsArtifacts artifacts;
  harness::add_obs_flags(cli, &artifacts);
  if (!cli.parse(argc, argv)) return 1;
  const auto msg = static_cast<std::uint64_t>(msg_kib) * 1024;
  const int it = static_cast<int>(iters);

  harness::Figure credits("Ablation: bandwidth vs data credits",
                          "credits", "bandwidth (Mbps)");
  for (std::uint64_t chunk : {4096ULL, 16384ULL, 65536ULL}) {
    auto& s = credits.add_series("chunk " + std::to_string(chunk / 1024) +
                                 " KiB");
    for (std::uint32_t c : {1u, 2u, 4u, 8u, 16u, 32u}) {
      sockets::ViaSocketOptions opt;
      opt.chunk_bytes = chunk;
      opt.credits = c;
      opt.credit_batch = std::max(1u, c / 2);
      s.add(c, measure_bw(opt, msg, it, artifacts));
    }
  }
  credits.print(std::cout);

  harness::Figure batch("Ablation: bandwidth vs credit batch (8 credits, "
                        "16 KiB chunks)",
                        "credit batch", "bandwidth (Mbps)");
  auto& bs = batch.add_series("SocketVIA");
  for (std::uint32_t b : {1u, 2u, 4u, 8u}) {
    sockets::ViaSocketOptions opt;
    opt.chunk_bytes = 16384;
    opt.credits = 8;
    opt.credit_batch = b;
    bs.add(b, measure_bw(opt, msg, it, artifacts));
  }
  batch.print(std::cout);
  std::cout << "reading: bandwidth saturates once credits cover the "
               "bandwidth-delay product of the DMA pipeline; oversized "
               "credit batches starve the sender at small credit counts.\n";
  return 0;
}
