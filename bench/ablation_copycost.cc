// Ablation: how much of TCP's deficit is the memory copies?
//
// The calibrated profiles embed the copy time the paper's hosts actually
// paid (the TCP send path's ~9 ns/B is dominated by the user->kernel
// memcpy). This bench makes that attribution falsifiable: the mem ledger
// knows *which* per-message events are copies, so we can scale just the
// copy term — 0% (today's hardware-accelerated best case baked into the
// calibration) up to several multiples (slower memory, no write-combining)
// — and watch latency and bandwidth respond per transport.
//
// Reading: VIA and SocketVIA are flat across the sweep — they record no
// copies, so there is nothing to scale; that insensitivity IS zero-copy.
// Kernel TCP degrades linearly with the scale (two copies per message),
// and the degradation grows with message size: exactly the paper's
// argument for why a VIA-backed sockets layer wins most at large payloads.
#include <iostream>

#include "common/cli.h"
#include "harness/series.h"
#include "mem/copy_policy.h"
#include "net/cost_model.h"
#include "sockets/factory.h"

namespace sv {
namespace {

SimTime pingpong(net::Transport tr, int scale_pct, std::uint64_t bytes,
                 int iters) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kFast);
  factory.set_copy_cost_scale_pct(scale_pct);
  SimTime elapsed;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, tr);
    s.spawn("pong", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) b->send(*m);
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
  return elapsed / (2 * iters);
}

double bandwidth(net::Transport tr, int scale_pct, std::uint64_t bytes,
                 int iters, std::uint64_t* copy_bytes_out = nullptr) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kFast);
  factory.set_copy_cost_scale_pct(scale_pct);
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
  if (copy_bytes_out != nullptr) {
    *copy_bytes_out = s.obs().registry.counter_value("mem.copy_bytes");
  }
  return throughput_mbps(bytes * static_cast<std::uint64_t>(iters), elapsed);
}

// Policy cross-check (DESIGN.md §14): the same SocketVIA stream under each
// selective-copy policy. Eager staging re-introduces a copy per message on
// the otherwise copy-free path; pin-based policies keep copies at zero and
// bill the registration ledger instead.
void print_policy_crosscheck(std::ostream& os, std::uint64_t bytes,
                             int iters) {
  os << "policy cross-check (SocketVIA, " << bytes / 1024 << " KiB x "
     << iters << " stream):\n";
  for (auto kind :
       {mem::CopyPolicyKind::kStaticPool, mem::CopyPolicyKind::kEagerCopy,
        mem::CopyPolicyKind::kRegisterOnFly, mem::CopyPolicyKind::kRegCache}) {
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kFast);
    mem::CopyPolicyConfig pcfg;
    pcfg.kind = kind;
    factory.set_copy_policy(pcfg);
    s.spawn("app", [&] {
      auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
      s.spawn("rx", [&, b = std::move(b), iters]() mutable {
        for (int i = 0; i < iters; ++i) b->recv();
      });
      for (int i = 0; i < iters; ++i) {
        // One hot application buffer: the regcache row pins once and hits
        // thereafter, while register_on_fly re-pins every message.
        a->send(net::Message{.bytes = bytes, .buffer = 1});
      }
      a->close_send();
    });
    s.run();
    const auto& reg = s.obs().registry;
    os << "  " << copy_policy_name(kind)
       << ": copies=" << reg.counter_value("mem.copies")
       << " registrations=" << reg.counter_value("mem.registrations")
       << " regcache_hits="
       << reg.counter_value("mem.regcache_hits{cache=regcache}") << "\n";
  }
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;
  std::int64_t iters = 50;
  CliParser cli("Ablation: copy-cost scale vs transport performance");
  cli.add_int("iters", &iters, "iterations per measurement");
  if (!cli.parse(argc, argv)) return 1;
  const int it = static_cast<int>(iters);

  const net::Transport transports[] = {net::Transport::kVia,
                                       net::Transport::kSocketVia,
                                       net::Transport::kKernelTcp};
  const int scales[] = {0, 50, 100, 200, 400};

  // (a) 4 KiB one-way latency vs additional copy cost.
  harness::Figure lat("Ablation: 4 KiB latency vs copy-cost scale",
                      "extra copy cost (% of calibrated copy term)",
                      "one-way latency (us)");
  for (auto tr : transports) {
    auto& series = lat.add_series(net::transport_name(tr));
    for (int pct : scales) {
      series.add(pct, pingpong(tr, pct, 4096, it).us());
    }
  }

  // (b) 64 KiB streaming bandwidth vs additional copy cost.
  harness::Figure bw("Ablation: 64 KiB bandwidth vs copy-cost scale",
                     "extra copy cost (% of calibrated copy term)",
                     "bandwidth (Mbps)");
  for (auto tr : transports) {
    auto& series = bw.add_series(net::transport_name(tr));
    for (int pct : scales) {
      series.add(pct, bandwidth(tr, pct, 65536, it));
    }
  }

  // (c) at a fixed doubled copy cost, the penalty vs message size: the
  // copy term is per-byte, so the zero-copy advantage compounds with size.
  harness::Figure size_fig(
      "Ablation: bandwidth at 200% copy cost vs message size",
      "msg size (bytes)", "bandwidth (Mbps)");
  for (auto tr : transports) {
    auto& series = size_fig.add_series(net::transport_name(tr));
    for (std::uint64_t n = 1024; n <= 65536; n *= 4) {
      series.add(static_cast<double>(n), bandwidth(tr, 200, n, it));
    }
  }

  lat.print(std::cout);
  bw.print(std::cout);
  size_fig.print(std::cout);
  std::uint64_t tcp_copy_bytes = 0;
  bandwidth(net::Transport::kKernelTcp, 0, 65536, it, &tcp_copy_bytes);
  std::uint64_t via_copy_bytes = 0;
  bandwidth(net::Transport::kVia, 0, 65536, it, &via_copy_bytes);
  std::cout << "ledger cross-check (64 KiB x " << it
            << " stream): TCP mem.copy_bytes=" << tcp_copy_bytes
            << ", VIA mem.copy_bytes=" << via_copy_bytes
            << "\nreading: VIA/SocketVIA are flat (no copies to scale); "
               "TCP degrades linearly with the copy term, and more "
               "steeply at larger messages.\n";
  print_policy_crosscheck(std::cout, 65536, it);
  return 0;
}
