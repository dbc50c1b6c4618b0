// Figure 4 reproduction: latency and bandwidth micro-benchmarks for VIA,
// SocketVIA and kernel TCP.
//
// Paper targets: latency 9 us (VIA) / 9.5 us (SocketVIA) / ~47.5 us (TCP);
// peak bandwidth 795 / 763 / 510 Mbps. All three curves are measured on
// the *detailed* protocol machinery (raw VIA descriptors, the credit-based
// SocketVIA layer, the segmenting TCP stack); the closed-form model's
// prediction is printed alongside as a cross-check.
#include <iostream>

#include "common/cli.h"
#include "harness/obsout.h"
#include "harness/series.h"
#include "net/cost_model.h"
#include "sockets/factory.h"
#include "sockets/tcp_socket.h"
#include "sockets/via_socket.h"
#include "via/via.h"

namespace sv {
namespace {

using namespace sv::literals;

/// Ping-pong latency over raw VIA descriptors.
SimTime via_pingpong(std::uint64_t bytes, int iters) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  via::Nic nic0(&s, &cluster.node(0)), nic1(&s, &cluster.node(1));
  auto a = nic0.create_vi();
  auto b = nic1.create_vi();
  via::Nic::connect(*a, *b);
  auto ra = nic0.register_memory(bytes);
  auto rb = nic1.register_memory(bytes);
  SimTime elapsed;
  s.spawn("pong", [&] {
    for (int i = 0; i < iters; ++i) {
      via::Descriptor rd;
      rd.region = rb;
      rd.length = bytes;
      b->post_recv(rd);
      b->recv_cq().wait();
      via::Descriptor sd;
      sd.region = rb;
      sd.length = bytes;
      b->post_send(sd);
      b->send_cq().wait();
    }
  });
  s.spawn("ping", [&] {
    const SimTime t0 = s.now();
    for (int i = 0; i < iters; ++i) {
      via::Descriptor rd;
      rd.region = ra;
      rd.length = bytes;
      a->post_recv(rd);
      via::Descriptor sd;
      sd.region = ra;
      sd.length = bytes;
      a->post_send(sd);
      a->send_cq().wait();
      a->recv_cq().wait();
    }
    elapsed = s.now() - t0;
  });
  s.run();
  return elapsed / (2 * iters);  // one-way latency
}

/// Ping-pong latency over a sockets backend. Latency benchmarks disable
/// Nagle (TCP_NODELAY), as the paper's micro-benchmarks did.
SimTime socket_pingpong(sockets::Fidelity fid, net::Transport tr,
                        std::uint64_t bytes, int iters,
                        const harness::ObsArtifacts* obs = nullptr) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  if (obs != nullptr) harness::begin_obs(s, *obs);
  sockets::SocketFactory factory(&s, &cluster, fid);
  SimTime elapsed;
  s.spawn("app", [&] {
    sockets::SocketPair pair;
    if (fid == sockets::Fidelity::kDetailed &&
        tr == net::Transport::kKernelTcp) {
      tcpstack::TcpOptions opt;
      opt.nagle = false;
      pair = sockets::DetailedTcpSocket::make_pair(factory.tcp_stack(0),
                                                   factory.tcp_stack(1), opt);
    } else {
      pair = factory.connect(0, 1, tr);
    }
    auto& [a, b] = pair;
    s.spawn("pong", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) {
        b->send(*m);
      }
    });
    const SimTime t0 = s.now();
    for (int i = 0; i < iters; ++i) {
      a->send(net::Message{.bytes = bytes});
      a->recv();
    }
    elapsed = s.now() - t0;
    a->close_send();
  });
  s.run();
  if (obs != nullptr) harness::export_obs(s, *obs);
  return elapsed / (2 * iters);
}

/// Streaming bandwidth (Mbps) over a sockets backend.
double socket_bandwidth(sockets::Fidelity fid, net::Transport tr,
                        std::uint64_t bytes, int iters,
                        const harness::ObsArtifacts* obs = nullptr) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  if (obs != nullptr) harness::begin_obs(s, *obs);
  sockets::SocketFactory factory(&s, &cluster, fid);
  SimTime elapsed;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, tr);
    s.spawn("rx", [&, b = std::move(b), iters]() mutable {
      const SimTime t0 = s.now();
      for (int i = 0; i < iters; ++i) b->recv();
      elapsed = s.now() - t0;
    });
    for (int i = 0; i < iters; ++i) {
      a->send(net::Message{.bytes = bytes});
    }
    a->close_send();
  });
  s.run();
  if (obs != nullptr) harness::export_obs(s, *obs);
  return throughput_mbps(bytes * static_cast<std::uint64_t>(iters), elapsed);
}

/// Copy audit (--copy-audit): runs a small ping-pong per transport and
/// fidelity and checks the zero-copy contract from the mem ledger — VIA
/// paths record no payload copies, kernel TCP records exactly two per
/// delivered message (user->kernel at send, kernel->user at receive).
/// Returns the process exit code (nonzero on contract violation) so CI can
/// gate on it.
int run_copy_audit(int iters) {
  struct Row {
    const char* name;
    sockets::Fidelity fid;
    net::Transport tr;
    std::uint64_t min_per_msg;
    std::uint64_t max_per_msg;
  };
  const Row rows[] = {
      {"VIA (fast)", sockets::Fidelity::kFast, net::Transport::kVia, 0, 0},
      {"SocketVIA (fast)", sockets::Fidelity::kFast,
       net::Transport::kSocketVia, 0, 0},
      {"SocketVIA (detailed)", sockets::Fidelity::kDetailed,
       net::Transport::kSocketVia, 0, 0},
      {"TCP (fast)", sockets::Fidelity::kFast, net::Transport::kKernelTcp, 2,
       2},
      {"TCP (detailed)", sockets::Fidelity::kDetailed,
       net::Transport::kKernelTcp, 2, 2},
  };
  constexpr std::uint64_t kBytes = 4096;
  bool ok = true;
  std::cout << "copy audit: " << iters << " ping-pongs of " << kBytes
            << " B per transport\n";
  for (const Row& row : rows) {
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    sockets::SocketFactory factory(&s, &cluster, row.fid);
    s.spawn("app", [&] {
      auto [a, b] = factory.connect(0, 1, row.tr);
      s.spawn("pong", [&, b = std::move(b)]() mutable {
        while (auto m = b->recv()) b->send(*m);
      });
      for (int i = 0; i < iters; ++i) {
        a->send(net::Message{.bytes = kBytes});
        a->recv();
      }
      a->close_send();
    });
    s.run();
    // 2*iters messages delivered end-to-end (ping + pong per iteration).
    const auto messages = static_cast<std::uint64_t>(2 * iters);
    const std::uint64_t copies = s.obs().registry.counter_value("mem.copies");
    const std::uint64_t per_msg = copies / messages;
    const bool pass = copies % messages == 0 &&
                      per_msg >= row.min_per_msg && per_msg <= row.max_per_msg;
    ok = ok && pass;
    std::cout << "  " << row.name << ": mem.copies=" << copies << " ("
              << per_msg << "/message, expected [" << row.min_per_msg << ", "
              << row.max_per_msg << "]) " << (pass ? "OK" : "VIOLATION")
              << "\n";
  }
  // Raw VIA at detailed fidelity lives below the sockets layer: descriptors
  // move between registered regions by modeled DMA, so the ledger must stay
  // at zero copies (registrations are expected and not counted here).
  {
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    via::Nic nic0(&s, &cluster.node(0)), nic1(&s, &cluster.node(1));
    auto a = nic0.create_vi();
    auto b = nic1.create_vi();
    via::Nic::connect(*a, *b);
    auto ra = nic0.register_memory(kBytes);
    auto rb = nic1.register_memory(kBytes);
    s.spawn("pong", [&] {
      for (int i = 0; i < iters; ++i) {
        via::Descriptor rd;
        rd.region = rb;
        rd.length = kBytes;
        b->post_recv(rd);
        b->recv_cq().wait();
        via::Descriptor sd;
        sd.region = rb;
        sd.length = kBytes;
        b->post_send(sd);
        b->send_cq().wait();
      }
    });
    s.spawn("ping", [&] {
      for (int i = 0; i < iters; ++i) {
        via::Descriptor rd;
        rd.region = ra;
        rd.length = kBytes;
        a->post_recv(rd);
        via::Descriptor sd;
        sd.region = ra;
        sd.length = kBytes;
        a->post_send(sd);
        a->send_cq().wait();
        a->recv_cq().wait();
      }
    });
    s.run();
    const std::uint64_t copies = s.obs().registry.counter_value("mem.copies");
    const std::uint64_t regs =
        s.obs().registry.counter_value("mem.registrations");
    const bool pass = copies == 0;
    ok = ok && pass;
    std::cout << "  VIA (detailed, raw descriptors): mem.copies=" << copies
              << " (expected 0; mem.registrations=" << regs << ") "
              << (pass ? "OK" : "VIOLATION") << "\n";
  }
  // Per-policy expected-copy assertions (DESIGN.md §14): the selective-copy
  // engine must charge exactly its decision-table row. Every message reuses
  // buffer region 1, so the regcache sees maximal locality: one miss per
  // node-policy, hits thereafter.
  {
    struct PolicyRow {
      const char* name;
      mem::CopyPolicyKind kind;
      net::Transport tr;
    };
    const PolicyRow prows[] = {
        {"SocketVIA + eager_copy", mem::CopyPolicyKind::kEagerCopy,
         net::Transport::kSocketVia},
        {"SocketVIA + register_on_fly", mem::CopyPolicyKind::kRegisterOnFly,
         net::Transport::kSocketVia},
        {"SocketVIA + regcache", mem::CopyPolicyKind::kRegCache,
         net::Transport::kSocketVia},
        {"TCP + eager_copy (policy inert)", mem::CopyPolicyKind::kEagerCopy,
         net::Transport::kKernelTcp},
    };
    for (const PolicyRow& row : prows) {
      sim::Simulation s;
      net::Cluster cluster(&s, 2);
      sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kFast);
      mem::CopyPolicyConfig pcfg;
      pcfg.kind = row.kind;
      pcfg.cache.capacity_regions = 8;
      factory.set_copy_policy(pcfg);
      s.spawn("app", [&] {
        auto [a, b] = factory.connect(0, 1, row.tr);
        s.spawn("pong", [&, b = std::move(b)]() mutable {
          while (auto m = b->recv()) b->send(*m);
        });
        for (int i = 0; i < iters; ++i) {
          a->send(net::Message{.bytes = kBytes, .buffer = 1});
          a->recv();
        }
        a->close_send();
      });
      s.run();
      const auto messages = static_cast<std::uint64_t>(2 * iters);
      const auto& reg = s.obs().registry;
      const std::uint64_t copies = reg.counter_value("mem.copies");
      const std::uint64_t regs = reg.counter_value("mem.registrations");
      const std::uint64_t deregs = reg.counter_value("mem.deregistrations");
      bool pass = false;
      switch (row.kind) {
        case mem::CopyPolicyKind::kStaticPool:
          pass = copies == 0 && regs == 0;
          break;
        case mem::CopyPolicyKind::kEagerCopy:
          if (row.tr == net::Transport::kKernelTcp) {
            // TCP never consults the policy: its two structural copies per
            // message remain, and nothing is pinned.
            pass = copies == 2 * messages && regs == 0 &&
                   reg.counter_value(
                       "mem.policy_decisions{policy=eager_copy}") == 0;
          } else {
            // One bounce copy per message, no pinning.
            pass = copies == messages && regs == 0 &&
                   reg.counter_value(
                       "mem.copies{at=policy.stage_copy}") == messages;
          }
          break;
        case mem::CopyPolicyKind::kRegisterOnFly:
          // Zero copies; every message pins and unpins.
          pass = copies == 0 && regs == messages && deregs == messages;
          break;
        case mem::CopyPolicyKind::kRegCache: {
          // Zero copies; one miss per node-policy (both sides send the
          // same region id), hits for every other message.
          const std::uint64_t hits =
              reg.counter_value("mem.regcache_hits{cache=regcache}");
          const std::uint64_t misses =
              reg.counter_value("mem.regcache_misses{cache=regcache}");
          pass = copies == 0 && misses == 2 && regs == 2 &&
                 hits == messages - 2;
          break;
        }
      }
      ok = ok && pass;
      std::cout << "  " << row.name << ": mem.copies=" << copies
                << " registrations=" << regs << " deregistrations=" << deregs
                << " " << (pass ? "OK" : "VIOLATION") << "\n";
    }
  }
  std::cout << (ok ? "copy audit passed\n" : "copy audit FAILED\n");
  return ok ? 0 : 1;
}

/// Streaming bandwidth over raw VIA.
double via_bandwidth(std::uint64_t bytes, int iters) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  via::Nic nic0(&s, &cluster.node(0)), nic1(&s, &cluster.node(1));
  auto a = nic0.create_vi();
  auto b = nic1.create_vi();
  via::Nic::connect(*a, *b);
  auto ra = nic0.register_memory(std::max<std::uint64_t>(bytes, 1));
  auto rb = nic1.register_memory(std::max<std::uint64_t>(bytes, 1));
  SimTime elapsed;
  s.spawn("rx", [&] {
    for (int i = 0; i < iters; ++i) {
      via::Descriptor rd;
      rd.region = rb;
      rd.length = bytes;
      b->post_recv(rd);
    }
    const SimTime t0 = s.now();
    for (int i = 0; i < iters; ++i) b->recv_cq().wait();
    elapsed = s.now() - t0;
  });
  s.spawn("tx", [&] {
    s.delay(5_us);  // receives posted first
    // Keep a deep send queue (as real VIA streaming benchmarks do) so the
    // wire, not completion reaping, is the bottleneck.
    constexpr int kWindow = 16;
    int outstanding = 0;
    for (int i = 0; i < iters; ++i) {
      via::Descriptor sd;
      sd.region = ra;
      sd.length = bytes;
      a->post_send(sd);
      if (++outstanding >= kWindow) {
        a->send_cq().wait();
        --outstanding;
      }
    }
    while (outstanding-- > 0) a->send_cq().wait();
  });
  s.run();
  return throughput_mbps(bytes * static_cast<std::uint64_t>(iters), elapsed);
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;
  std::int64_t iters = 50;
  bool copy_audit = false;
  harness::ObsArtifacts artifacts;
  CliParser cli("Figure 4: latency and bandwidth micro-benchmarks");
  cli.add_int("iters", &iters, "ping-pong / streaming iterations per size");
  cli.add_flag("copy-audit", &copy_audit,
               "check the zero-copy contract (mem.copies per message) "
               "instead of running the figure; nonzero exit on violation");
  harness::add_obs_flags(cli, &artifacts);
  if (!cli.parse(argc, argv)) return 1;
  const int it = static_cast<int>(iters);
  if (copy_audit) return run_copy_audit(it);

  const net::CostModel via_model{net::CalibrationProfile::via()};
  const net::CostModel svia_model{net::CalibrationProfile::socket_via()};
  const net::CostModel tcp_model{net::CalibrationProfile::kernel_tcp()};

  harness::Figure lat("Figure 4(a): Micro-Benchmarks: Latency",
                      "msg size (bytes)", "one-way latency (us)");
  auto& l_via = lat.add_series("VIA");
  auto& l_svia = lat.add_series("SocketVIA");
  auto& l_tcp = lat.add_series("TCP");
  auto& l_svia_model = lat.add_series("SocketVIA (model)");
  auto& l_tcp_model = lat.add_series("TCP (model)");
  for (std::uint64_t n = 4; n <= 4096; n *= 2) {
    const auto x = static_cast<double>(n);
    l_via.add(x, via_pingpong(n, it).us());
    l_svia.add(x, socket_pingpong(sockets::Fidelity::kDetailed,
                                  net::Transport::kSocketVia, n, it)
                      .us());
    l_tcp.add(x, socket_pingpong(sockets::Fidelity::kDetailed,
                                 net::Transport::kKernelTcp, n, it)
                     .us());
    l_svia_model.add(x, svia_model.pingpong_latency(n).us());
    l_tcp_model.add(x, tcp_model.pingpong_latency(n).us());
  }

  harness::Figure bw("Figure 4(b): Micro-Benchmarks: Bandwidth",
                     "msg size (bytes)", "bandwidth (Mbps)");
  auto& b_via = bw.add_series("VIA");
  auto& b_svia = bw.add_series("SocketVIA");
  auto& b_tcp = bw.add_series("TCP");
  auto& b_svia_model = bw.add_series("SocketVIA (model)");
  auto& b_tcp_model = bw.add_series("TCP (model)");
  auto& b_fe_model = bw.add_series("TCP/FastEth (model)");
  const net::CostModel fe_model{net::CalibrationProfile::fast_ethernet_tcp()};
  for (std::uint64_t n = 64; n <= 65536; n *= 2) {
    const auto x = static_cast<double>(n);
    b_via.add(x, via_bandwidth(n, it));
    b_svia.add(x, socket_bandwidth(sockets::Fidelity::kDetailed,
                                   net::Transport::kSocketVia, n, it));
    // The trace/metrics artifacts capture the largest detailed-TCP
    // streaming run (the richest protocol activity in this bench).
    b_tcp.add(x, socket_bandwidth(sockets::Fidelity::kDetailed,
                                  net::Transport::kKernelTcp, n, it,
                                  n == 65536 ? &artifacts : nullptr));
    b_svia_model.add(x, svia_model.stream_bandwidth_mbps(n));
    b_tcp_model.add(x, tcp_model.stream_bandwidth_mbps(n));
    b_fe_model.add(x, fe_model.stream_bandwidth_mbps(n));
  }

  lat.print(std::cout);
  bw.print(std::cout);
  std::cout << "paper targets: latency VIA ~9us, SocketVIA ~9.5us, TCP "
               "~47.5us; peak bandwidth 795/763/510 Mbps\n";
  return 0;
}
