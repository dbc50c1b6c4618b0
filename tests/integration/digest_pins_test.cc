// Golden event-trace digest pins (DESIGN.md §8, §12).
//
// Each pinned workload is a scaled-down seeded run of a paper experiment
// (fig04 ping-pong, fig08 paced updates, fig10 load balancing) or of the
// detailed VIA socket's credit protocol under starvation, on both data
// paths (the flow-control ablation and the RDMA extension), or of the
// detailed kernel TCP's loss recovery (RTO, fast retransmit, reassembly)
// under bursty loss and jitter, or of a demand-driven DataCutter stream
// over a local pair and a fast or detailed transport. Its (events_fired,
// trace_digest) pair is committed to tests/integration/digest_pins.txt;
// the paper-experiment pins were captured on the original
// std::priority_queue engine *before* the timing-wheel queue swap. The
// test recomputes every workload on the current engine — on *both* queue
// implementations — and asserts bit-identical digests, so the determinism
// contract survives queue and allocator optimizations mechanically, not by
// review.
//
// Regenerate (only for deliberate, understood schedule changes):
//   ./build/tests/digest_pins_test --update-pins
//
// This binary has its own main() (it cannot link gtest_main) so it can
// strip the --update-pins flag before GoogleTest parses the rest.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datacutter/runtime.h"
#include "harness/openloop.h"
#include "harness/vizbench.h"
#include "net/cluster.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "sockets/factory.h"
#include "sockets/via_socket.h"
#include "via/via.h"
#include "vizapp/loadbalance.h"

#ifndef SV_DIGEST_PIN_FILE
#error "SV_DIGEST_PIN_FILE must point at tests/integration/digest_pins.txt"
#endif

namespace sv::harness {
namespace {

using namespace sv::literals;

bool g_update_pins = false;

/// One recomputed workload outcome.
struct PinnedRun {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

/// The pin file: `name events digest` per line, '#' comments, sorted by
/// name so regeneration diffs cleanly.
std::map<std::string, PinnedRun> read_pins() {
  std::map<std::string, PinnedRun> pins;
  std::ifstream in(SV_DIGEST_PIN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    PinnedRun run;
    ls >> name >> run.events >> run.digest;
    pins[name] = run;
  }
  return pins;
}

void write_pins(const std::map<std::string, PinnedRun>& pins) {
  std::ofstream out(SV_DIGEST_PIN_FILE);
  out << "# Golden (events_fired, trace_digest) pins per seeded workload.\n"
      << "# Captured on the pre-timing-wheel heap engine; see\n"
      << "# digest_pins_test.cc for the regeneration policy.\n";
  for (const auto& [name, run] : pins) {
    out << name << ' ' << run.events << ' ' << run.digest << '\n';
  }
}

/// Checks one recomputed run against its pin (or records it in update
/// mode). `variant` distinguishes queue implementations; both must match
/// the single pinned value.
void expect_pin(const std::string& name, const std::string& variant,
                const PinnedRun& got) {
  static std::map<std::string, PinnedRun> pins = read_pins();
  if (g_update_pins) {
    auto it = pins.find(name);
    if (it == pins.end()) {
      pins[name] = got;
      write_pins(pins);
    } else {
      ASSERT_EQ(it->second.events, got.events)
          << name << " (" << variant << ") diverges within one update run";
      ASSERT_EQ(it->second.digest, got.digest)
          << name << " (" << variant << ") diverges within one update run";
    }
    return;
  }
  auto it = pins.find(name);
  ASSERT_NE(it, pins.end())
      << "no pin for " << name
      << " — run digest_pins_test --update-pins and review the diff";
  EXPECT_EQ(it->second.events, got.events)
      << name << " [" << variant << "]: event count drifted from the pin";
  EXPECT_EQ(it->second.digest, got.digest)
      << name << " [" << variant
      << "]: trace digest drifted from the pin — the engine no longer "
         "executes the pinned event sequence";
}

/// Fig 4-style seeded ping-pong on the detailed protocol machinery.
PinnedRun fig04_pingpong(sim::QueueKind kind, net::Transport tr) {
  sim::Simulation s(kind);
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kDetailed);
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, tr);
    s.spawn("pong", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) b->send(*m);
    });
    for (int i = 0; i < 20; ++i) {
      a->send(net::Message{.bytes = 4096});
      a->recv();
    }
    a->close_send();
  });
  s.run();
  return {s.events_fired(), s.engine().trace_digest()};
}

/// The detailed VIA socket starved of credits: 4 KiB chunks, 2 credits
/// returned one at a time, so most chunks of the six 3,000-28,000 B
/// messages wait for a credit update. `rdma` selects the push data path.
PinnedRun via_credit_stream(sim::QueueKind kind, bool rdma) {
  sim::Simulation s(kind);
  net::Cluster cluster(&s, 2);
  via::Nic nic0(&s, &cluster.node(0));
  via::Nic nic1(&s, &cluster.node(1));
  s.spawn("app", [&] {
    sockets::ViaSocketOptions opt;
    opt.chunk_bytes = 4096;
    opt.credits = 2;
    opt.credit_batch = 1;
    if (rdma) opt.data_path = sockets::ViaDataPath::kRdmaWrite;
    auto [a, b] = sockets::DetailedViaSocket::make_pair(nic0, nic1, opt);
    s.spawn("rx", [b = std::move(b)]() mutable {
      while (b->recv()) {
      }
    });
    constexpr std::uint64_t kSizes[] = {3'000, 28'000, 4'096,
                                        17'500, 9'000, 12'288};
    for (const std::uint64_t bytes : kSizes) {
      a->send(net::Message{.bytes = bytes});
    }
    a->close_send();
  });
  s.run();
  return {s.events_fired(), s.engine().trace_digest()};
}

/// A lossy echo over the detailed kernel-TCP socket: 3% bursty loss and
/// up to 30 us of jitter on every link (fault seed 9). Node 0 sends 24
/// messages of 1000 + 1700*i bytes and closes; node 1 echoes 200 bytes
/// after every third message and closes at EOF; node 0 drains to EOF. The
/// recovery counters must be nonzero, so the pin keeps covering RTO
/// expiry, fast retransmit and out-of-order reassembly.
PinnedRun tcp_lossy_echo(sim::QueueKind kind) {
  sim::Simulation s(kind);
  net::Cluster cluster(&s, 2);
  net::FaultPlan plan;
  plan.all_links.loss = 0.03;
  plan.all_links.burst_continue = 0.3;
  plan.all_links.max_jitter = 30_us;
  cluster.install_faults(plan, 9);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kDetailed);
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kKernelTcp);
    s.spawn("echo", [b = std::move(b)]() mutable {
      int received = 0;
      while (b->recv()) {
        if (++received % 3 == 0) b->send(net::Message{.bytes = 200});
      }
      b->close_send();
    });
    for (std::uint64_t i = 0; i < 24; ++i) {
      a->send(net::Message{.bytes = 1000 + 1700 * i});
    }
    a->close_send();
    while (a->recv()) {
    }
  });
  s.run();
  const obs::Registry& reg = s.obs().registry;
  EXPECT_GT(reg.sum_counters("tcpstack.rto_expirations{"), 0u);
  EXPECT_GT(reg.sum_counters("tcpstack.fast_retransmits{"), 0u);
  EXPECT_GT(reg.sum_counters("tcpstack.segments_retransmitted{conn="), 0u);
  EXPECT_GT(reg.sum_counters("tcpstack.ooo_segments_received{"), 0u);
  EXPECT_GT(reg.sum_counters("tcpstack.dup_acks_received{"), 0u);
  return {s.events_fired(), s.engine().trace_digest()};
}

/// Writes buffers of 700 B to 40 KiB per unit of work, four of them larger
/// than a 16 KiB VIA chunk.
class DdSource final : public dc::Filter {
 public:
  void process(dc::FilterContext& ctx) override {
    constexpr std::uint64_t kSizes[] = {3'000,  40'000, 700,   24'000,
                                        16'384, 9'000,  33'000, 1'200,
                                        20'000, 5'000};
    std::uint64_t tag = 0;
    for (const std::uint64_t bytes : kSizes) {
      ctx.write(dc::DataBuffer{.bytes = bytes, .tag = tag++});
    }
  }
};

/// Computes 2 ns per byte of every buffer it reads; counts what it read.
class DdSink final : public dc::Filter {
 public:
  explicit DdSink(std::uint64_t* bytes) : bytes_(bytes) {}
  void process(dc::FilterContext& ctx) override {
    while (const std::optional<dc::DataBuffer> b = ctx.read()) {
      ctx.compute(
          SimTime::nanoseconds(static_cast<std::int64_t>(2 * b->bytes)));
      *bytes_ += b->bytes;
    }
  }

 private:
  std::uint64_t* bytes_;
};

/// A demand-driven DataCutter stream: a source on node 0 feeds two
/// consumer copies, one on node 0 (a LocalSocket pair) and one on node 1
/// (`tr` at `fidelity`), over three units of work.
PinnedRun dc_dd(sim::QueueKind kind, sockets::Fidelity fidelity,
                net::Transport tr) {
  sim::Simulation s(kind);
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, fidelity);
  std::uint64_t received = 0;
  dc::FilterGroup g;
  g.add_filter("src", [] { return std::make_unique<DdSource>(); }, {0});
  g.add_filter("sink",
               [&received] { return std::make_unique<DdSink>(&received); },
               {0, 1});
  g.add_stream("src", "sink", dc::SchedPolicy::kDemandDriven);
  dc::Runtime rt(&s, &cluster, &factory, std::move(g),
                 dc::RuntimeOptions{.transport = tr});
  rt.start();
  for (std::uint64_t q = 1; q <= 3; ++q) rt.submit(dc::Uow{.id = q});
  rt.close_input();
  s.run();
  // Every buffer arrived, and both consumer copies took some.
  EXPECT_EQ(received, 3 * 152'284u);
  const auto split = rt.distribution(0);
  EXPECT_GT(split[0][0], 0u);
  EXPECT_GT(split[0][1], 0u);
  return {s.events_fired(), s.engine().trace_digest()};
}

/// Fig 8-style paced complete updates with partial-update probes.
PinnedRun fig08_paced(sim::QueueKind kind, net::Transport tr) {
  VizWorkloadConfig cfg;
  cfg.transport = tr;
  cfg.image_bytes = 2_MiB;
  cfg.block_bytes = 128_KiB;
  cfg.cluster_nodes = 16;
  cfg.seed = 42;
  cfg.queue_kind = kind;
  const auto r = run_paced_updates(cfg, 4.0, 4, 1);
  return {r.events_fired, r.trace_digest};
}

/// Fig 10-style round-robin load balancing with a statically slow worker.
PinnedRun fig10_balance(sim::QueueKind kind, net::Transport tr,
                        std::uint64_t block_bytes) {
  viz::LoadBalanceConfig cfg;
  cfg.transport = tr;
  cfg.total_bytes = 1_MiB;
  cfg.block_bytes = block_bytes;
  cfg.policy = dc::SchedPolicy::kRoundRobin;
  cfg.slow_worker = 1;
  cfg.slow_factor = 4;
  cfg.compute = PerByteCost::nanos_per_byte(18);
  cfg.seed = 7;
  cfg.queue_kind = kind;
  const auto r = viz::run_load_balance(cfg);
  return {r.events_fired, r.trace_digest};
}

/// Scale pin: a 128-node open-loop run over a k=8 fat-tree with faults,
/// churn, and incast redirection all active (DESIGN.md §13). Much smaller
/// than the scale_replay_test battery, but through the identical stack, so
/// cross-commit drift in topology routing, mux batching, or arrival math
/// trips this pin mechanically.
PinnedRun scale_openloop(sim::QueueKind kind, net::Transport tr) {
  OpenLoopConfig cfg;
  cfg.transport = tr;
  cfg.cluster_nodes = 128;
  cfg.topology = net::TopologySpec::fat_tree(8, 2);
  cfg.seed = 404;
  cfg.clients = 128'000;
  cfg.arrivals.kind = ArrivalKind::kMmpp;
  cfg.arrivals.rate_per_sec = 1'000.0;
  cfg.update_bytes = 2048;
  cfg.fanout = 4;
  cfg.incast_fraction = 0.1;
  cfg.hot_node = 5;
  cfg.churn_per_sec = 30.0;
  cfg.duration = SimTime::milliseconds(10);
  cfg.faults.all_links.loss = 0.01;
  cfg.faults.all_links.max_jitter = SimTime::microseconds(20);
  cfg.queue_kind = kind;
  const auto r = run_open_loop(cfg);
  return {r.events_fired, r.trace_digest};
}

/// Runs `make_run` on every queue implementation and checks each against
/// the same pin.
template <typename F>
void check_all_queues(const std::string& name, F make_run) {
  expect_pin(name, "timing_wheel", make_run(sim::QueueKind::kTimingWheel));
  expect_pin(name, "reference_heap",
             make_run(sim::QueueKind::kReferenceHeap));
}

TEST(DigestPins, Fig04PingPongTcp) {
  check_all_queues("fig04_pingpong_tcp", [](sim::QueueKind k) {
    return fig04_pingpong(k, net::Transport::kKernelTcp);
  });
}

TEST(DigestPins, Fig04PingPongSocketVia) {
  check_all_queues("fig04_pingpong_svia", [](sim::QueueKind k) {
    return fig04_pingpong(k, net::Transport::kSocketVia);
  });
}

TEST(DigestPins, ViaCreditStreamSocketVia) {
  check_all_queues("via_credit_stream_svia", [](sim::QueueKind k) {
    return via_credit_stream(k, /*rdma=*/false);
  });
}

TEST(DigestPins, ViaCreditStreamRdma) {
  check_all_queues("via_credit_stream_rdma", [](sim::QueueKind k) {
    return via_credit_stream(k, /*rdma=*/true);
  });
}

TEST(DigestPins, TcpLossyEcho) {
  check_all_queues("tcp_lossy_echo",
                   [](sim::QueueKind k) { return tcp_lossy_echo(k); });
}

TEST(DigestPins, DataCutterDemandDrivenFastTcp) {
  check_all_queues("dc_dd_fast_tcp", [](sim::QueueKind k) {
    return dc_dd(k, sockets::Fidelity::kFast, net::Transport::kKernelTcp);
  });
}

TEST(DigestPins, DataCutterDemandDrivenDetailedTcp) {
  check_all_queues("dc_dd_detailed_tcp", [](sim::QueueKind k) {
    return dc_dd(k, sockets::Fidelity::kDetailed, net::Transport::kKernelTcp);
  });
}

TEST(DigestPins, DataCutterDemandDrivenDetailedSocketVia) {
  check_all_queues("dc_dd_detailed_svia", [](sim::QueueKind k) {
    return dc_dd(k, sockets::Fidelity::kDetailed, net::Transport::kSocketVia);
  });
}

TEST(DigestPins, Fig08PacedUpdatesTcp) {
  check_all_queues("fig08_paced_tcp", [](sim::QueueKind k) {
    return fig08_paced(k, net::Transport::kKernelTcp);
  });
}

TEST(DigestPins, Fig08PacedUpdatesSocketVia) {
  check_all_queues("fig08_paced_svia", [](sim::QueueKind k) {
    return fig08_paced(k, net::Transport::kSocketVia);
  });
}

TEST(DigestPins, Fig10BalanceTcp) {
  check_all_queues("fig10_balance_tcp", [](sim::QueueKind k) {
    return fig10_balance(k, net::Transport::kKernelTcp, 16 * 1024);
  });
}

TEST(DigestPins, Fig10BalanceSocketVia) {
  check_all_queues("fig10_balance_svia", [](sim::QueueKind k) {
    return fig10_balance(k, net::Transport::kSocketVia, 2 * 1024);
  });
}

TEST(DigestPins, ScaleOpenLoopSocketVia) {
  check_all_queues("scale_openloop_svia", [](sim::QueueKind k) {
    return scale_openloop(k, net::Transport::kSocketVia);
  });
}

TEST(DigestPins, ScaleOpenLoopTcp) {
  check_all_queues("scale_openloop_tcp", [](sim::QueueKind k) {
    return scale_openloop(k, net::Transport::kKernelTcp);
  });
}

}  // namespace
}  // namespace sv::harness

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-pins") {
      sv::harness::g_update_pins = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  ::testing::InitGoogleTest(&filtered_argc, args.data());
  return RUN_ALL_TESTS();
}
