// Ablation: kernel-TCP knobs on the detailed stack — MSS, Nagle, delayed
// ACK — quantifying how much of TCP's disadvantage is protocol policy
// rather than fundamental host overhead.
#include <iostream>

#include "common/cli.h"
#include "harness/obsout.h"
#include "harness/series.h"
#include "net/cluster.h"
#include "sockets/tcp_socket.h"

namespace sv {
namespace {

using namespace sv::literals;

struct Measures {
  double pingpong_us;
  double bandwidth_mbps;
};

Measures measure(const tcpstack::TcpOptions& opt,
                 const harness::ObsArtifacts& obs) {
  Measures out{};
  {
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    tcpstack::TcpStack st0(&s, &cluster.node(0)), st1(&s, &cluster.node(1));
    SimTime elapsed;
    s.spawn("app", [&] {
      auto [a, b] = sockets::DetailedTcpSocket::make_pair(st0, st1, opt);
      s.spawn("echo", [&s, b = std::move(b)]() mutable {
        while (auto m = b->recv()) b->send(*m);
      });
      const SimTime t0 = s.now();
      for (int i = 0; i < 50; ++i) {
        a->send(net::Message{.bytes = 64});
        a->recv();
      }
      elapsed = s.now() - t0;
      a->close_send();
    });
    s.run();
    out.pingpong_us = elapsed.us() / 100.0;
  }
  {
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    harness::begin_obs(s, obs);  // artifacts capture the streaming run
    tcpstack::TcpStack st0(&s, &cluster.node(0)), st1(&s, &cluster.node(1));
    SimTime elapsed;
    const int kIters = 60;
    const std::uint64_t kMsg = 64_KiB;
    s.spawn("app", [&] {
      auto [a, b] = sockets::DetailedTcpSocket::make_pair(st0, st1, opt);
      s.spawn("rx", [&s, &elapsed, b = std::move(b)]() mutable {
        const SimTime t0 = s.now();
        for (int i = 0; i < kIters; ++i) b->recv();
        elapsed = s.now() - t0;
      });
      for (int i = 0; i < kIters; ++i) a->send(net::Message{.bytes = kMsg});
      a->close_send();
    });
    s.run();
    harness::export_obs(s, obs);
    out.bandwidth_mbps = throughput_mbps(kMsg * kIters, elapsed);
  }
  return out;
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;
  CliParser cli("Ablation: TCP MSS / Nagle / delayed-ACK");
  harness::ObsArtifacts artifacts;
  harness::add_obs_flags(cli, &artifacts);
  if (!cli.parse(argc, argv)) return 1;

  Table t({"configuration", "64B ping-pong one-way (us)",
           "64KiB stream (Mbps)"});
  auto row = [&](const std::string& name, const tcpstack::TcpOptions& opt) {
    const auto m = measure(opt, artifacts);
    t.add_row({name, Table::num(m.pingpong_us, 2),
               Table::num(m.bandwidth_mbps, 1)});
  };

  tcpstack::TcpOptions base;
  row("default (MSS 1460, Nagle, delayed ACK)", base);

  tcpstack::TcpOptions nodelay = base;
  nodelay.nagle = false;
  row("TCP_NODELAY", nodelay);

  tcpstack::TcpOptions quickack = base;
  quickack.delayed_ack = false;
  row("no delayed ACK", quickack);

  tcpstack::TcpOptions both = base;
  both.nagle = false;
  both.delayed_ack = false;
  row("TCP_NODELAY + no delayed ACK", both);

  for (std::uint32_t mss : {536u, 1460u, 4380u, 8960u}) {
    tcpstack::TcpOptions o = both;
    o.mss = mss;
    row("MSS " + std::to_string(mss) + " (nodelay+quickack)", o);
  }

  tcpstack::TcpOptions bigbuf = both;
  bigbuf.send_buffer = 256 * 1024;
  bigbuf.recv_buffer = 256 * 1024;
  row("256 KiB socket buffers", bigbuf);

  t.print(std::cout);
  std::cout << "\nreading: Nagle+delayed-ACK dominate small-message "
               "behaviour; bandwidth is bound by per-segment receive "
               "processing, so jumbo MSS (9 KB) recovers much of the gap "
               "to SocketVIA — which is why the paper's per-byte gap "
               "persists only on standard Ethernet framing.\n";
  return 0;
}
