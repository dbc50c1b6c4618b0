// Golden-trace regression tests (DESIGN.md §9).
//
// Each scenario runs a small fixed-seed simulation with the tracer on and
// diffs the canonical trace text byte-for-byte against a checked-in golden
// file under tests/obs/golden/. Because tracing is passive and the sim is
// deterministic, any divergence means observable behaviour changed: a cost
// model constant, an event ordering, or the instrumentation itself. The
// failure report pinpoints the first diverging line so the reviewer can see
// *what* moved, not just that something did.
//
// Regenerating goldens after an intentional behaviour change:
//   ./build/tests/golden_trace_test --update-goldens
//
// This binary has its own main() (it cannot link gtest_main) so it can
// strip the --update-goldens flag before GoogleTest parses the rest.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/cluster.h"
#include "net/fault.h"
#include "obs/trace.h"
#include "sockets/factory.h"
#include "sockets/via_socket.h"
#include "via/via.h"

#ifndef SV_GOLDEN_DIR
#error "SV_GOLDEN_DIR must point at tests/obs/golden"
#endif

namespace sv::obs {
namespace {

bool g_update_goldens = false;

std::string golden_path(const std::string& name) {
  return std::string(SV_GOLDEN_DIR) + "/" + name + ".txt";
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Diffs `actual` against the golden file for `name`. In update mode the
/// golden is rewritten instead and the test passes vacuously.
void check_against_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (g_update_goldens) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write golden " << path;
    out << actual;
    ASSERT_TRUE(out.good()) << "short write on golden " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open())
      << "missing golden " << path
      << " — run golden_trace_test --update-goldens to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected == actual) return;

  // Pinpoint the first diverging line for a readable failure.
  const std::vector<std::string> want = split_lines(expected);
  const std::vector<std::string> got = split_lines(actual);
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  std::ostringstream msg;
  msg << "canonical trace diverges from " << path << " at line " << (i + 1)
      << ":\n";
  msg << "  golden: "
      << (i < want.size() ? want[i] : std::string("<end of file>")) << "\n";
  msg << "  actual: "
      << (i < got.size() ? got[i] : std::string("<end of trace>")) << "\n";
  if (want.size() != got.size()) {
    msg << "  (" << want.size() << " golden lines vs " << got.size()
        << " actual)\n";
  }
  msg << "If the change in behaviour is intentional, regenerate with "
         "--update-goldens and review the diff.";
  ADD_FAILURE() << msg.str();
}

// --- Scenarios -----------------------------------------------------------
// Keep these tiny: the goldens are reviewed by humans, so a few dozen
// events beat a few thousand. Everything is fixed-seed and single-run.

/// Fast-fidelity kernel-TCP ping-pong: 3 round trips of 4 KiB.
std::string trace_fast_tcp_pingpong() {
  sim::Simulation s;
  s.obs().tracer.enable();
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kFast);
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kKernelTcp);
    s.spawn("echo", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) b->send(*m);
    });
    for (int i = 0; i < 3; ++i) {
      a->send(net::Message{.bytes = 4096});
      a->recv();
    }
    a->close_send();
  });
  s.run();
  return s.obs().tracer.canonical();
}

/// Detailed SocketVIA chunked stream: 4 messages of 24 KiB, multi-chunk.
std::string trace_svia_chunk_stream() {
  sim::Simulation s;
  s.obs().tracer.enable();
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kDetailed);
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (b->recv()) {
      }
    });
    for (int i = 0; i < 4; ++i) a->send(net::Message{.bytes = 24 * 1024});
    a->close_send();
  });
  s.run();
  return s.obs().tracer.canonical();
}

/// The same 4 x 24 KiB stream on the RDMA push path: each chunk is an RDMA
/// write into the peer's slot ring, notified by write-with-immediate.
std::string trace_rdma_push_chunk_stream() {
  sim::Simulation s;
  s.obs().tracer.enable();
  net::Cluster cluster(&s, 2);
  via::Nic nic0(&s, &cluster.node(0));
  via::Nic nic1(&s, &cluster.node(1));
  s.spawn("app", [&] {
    auto [a, b] = sockets::DetailedViaSocket::make_pair(
        nic0, nic1, {.data_path = sockets::ViaDataPath::kRdmaWrite});
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (b->recv()) {
      }
    });
    for (int i = 0; i < 4; ++i) a->send(net::Message{.bytes = 24 * 1024});
    a->close_send();
  });
  s.run();
  return s.obs().tracer.canonical();
}

/// Fast-fidelity lossy transfer: uniform 5% frame loss at seed 7, so the
/// trace pins down the injector's drop pattern and the recovery delays.
std::string trace_lossy_transfer() {
  sim::Simulation s;
  s.obs().tracer.enable();
  net::Cluster cluster(&s, 2);
  cluster.install_faults(net::FaultPlan::uniform_loss(0.05), /*seed=*/7);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kFast);
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kKernelTcp);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (b->recv()) {
      }
    });
    for (int i = 0; i < 8; ++i) a->send(net::Message{.bytes = 16 * 1024});
    a->close_send();
  });
  s.run();
  return s.obs().tracer.canonical();
}

TEST(GoldenTrace, FastTcpPingPong) {
  check_against_golden("fast_tcp_pingpong", trace_fast_tcp_pingpong());
}

TEST(GoldenTrace, SocketViaChunkStream) {
  check_against_golden("svia_chunk_stream", trace_svia_chunk_stream());
}

TEST(GoldenTrace, RdmaPushChunkStream) {
  check_against_golden("rdma_push_chunk_stream",
                       trace_rdma_push_chunk_stream());
}

TEST(GoldenTrace, LossyTransfer) {
  check_against_golden("lossy_transfer", trace_lossy_transfer());
}

TEST(GoldenTrace, TraceIsBitIdenticalAcrossRuns) {
  // The goldens only make sense if the canonical form is reproducible in
  // the first place; this guards the determinism contract directly.
  EXPECT_EQ(trace_fast_tcp_pingpong(), trace_fast_tcp_pingpong());
  EXPECT_EQ(trace_lossy_transfer(), trace_lossy_transfer());
}

}  // namespace
}  // namespace sv::obs

int main(int argc, char** argv) {
  // Strip our flag before GoogleTest sees the command line.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-goldens") {
      sv::obs::g_update_goldens = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
