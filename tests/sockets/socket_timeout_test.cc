// Timed socket operations across every transport: recv_for deadlines,
// EOF-vs-timeout distinction, stall detection on the send side —
// window stall (fast fabric), credit stall (SocketVIA and its RDMA push
// path, where a credit is a ring slot), and an un-ACKing peer (detailed
// TCP) — and a deadline that never trips behaving exactly like no deadline.
#include "sockets/socket.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datacutter/local_socket.h"
#include "net/fault.h"
#include "sockets/factory.h"
#include "sockets/tcp_socket.h"
#include "sockets/via_socket.h"

namespace sv::sockets {
namespace {

using namespace sv::literals;

/// Stall `node` from 10us for 10s — 500x any deadline in this file, so
/// "forever" as far as the timed operations are concerned. Transport setup
/// at t=0 still works; nothing on the node progresses afterwards. Kept
/// bounded (not years) because after the app gives up, background machinery
/// such as TCP's RTO timer legitimately keeps retrying into the stalled
/// node until the window closes, and the run must still drain quickly.
void stall_forever(net::Cluster& cluster, int node) {
  net::FaultPlan plan;
  plan.nodes.push_back(
      net::NodeFault{.node = node, .start = 10_us, .duration = 10_s});
  cluster.install_faults(plan, 1);
}

TEST(SocketTimeoutTest, RecvForTimesOutAtExactDeadline) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster);
  bool reached_end = false;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
    const SimTime t0 = s.now();
    auto r = b->recv_for(3_ms);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kTimeout);
    EXPECT_TRUE(r.timed_out());
    EXPECT_EQ(s.now() - t0, 3_ms);  // woke exactly at the deadline
    (void)a;
    reached_end = true;
  });
  s.run();
  EXPECT_TRUE(reached_end);
}

TEST(SocketTimeoutTest, RecvForDeliversArrivingMessage) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster);
  bool reached_end = false;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
    s.spawn("tx", [&s, a = std::move(a)]() mutable {
      s.delay(200_us);
      a->send(net::Message{.bytes = 4096, .tag = 7});
      a->close_send();
    });
    auto r = b->recv_for(10_ms);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().has_value());
    EXPECT_EQ(r.value()->tag, 7u);
    // After the peer closes, the timed receive reports clean EOF, not a
    // timeout.
    auto eof = b->recv_for(10_ms);
    ASSERT_TRUE(eof.ok());
    EXPECT_FALSE(eof.value().has_value());
    reached_end = true;
  });
  s.run();
  EXPECT_TRUE(reached_end);
}

TEST(SocketTimeoutTest, FastSocketWindowStallTimesOut) {
  // Receiver node stalled: the first oversized message fills the pipe's
  // flow-control window, so the second timed send must report kTimeout.
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  stall_forever(cluster, 1);
  SocketFactory factory(&s, &cluster);
  bool reached_end = false;
  SimTime failed_at;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
    s.delay(20_us);
    // 64 KiB fits inside the 128 KiB window, so the send completes even
    // though the stalled receiver never drains it...
    ASSERT_TRUE(a->send_for(net::Message{.bytes = 64_KiB}, 5_ms).ok());
    // ...but the next 256 KiB cannot be admitted and must time out.
    auto r = a->send_for(net::Message{.bytes = 256_KiB}, 5_ms);
    failed_at = s.now();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kTimeout);
    (void)b;
    reached_end = true;
  });
  s.run();
  EXPECT_TRUE(reached_end);
  // The deadline fired promptly; the run's final clock is the stall-holder
  // release, so the app's observed time is what proves nothing hung.
  EXPECT_LT(failed_at, 1_s);
}

TEST(SocketTimeoutTest, ViaCreditStallTimesOut) {
  // SocketVIA flow control: the stalled receiver stops returning data
  // credits, so a sender that exhausts its credits must time out rather
  // than wait forever.
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  stall_forever(cluster, 1);
  via::Nic nic0(&s, &cluster.node(0));
  via::Nic nic1(&s, &cluster.node(1));
  bool reached_end = false;
  SimTime failed_at;
  s.spawn("app", [&] {
    ViaSocketOptions opt;
    opt.chunk_bytes = 4096;
    opt.credits = 2;
    opt.credit_batch = 1;
    auto [a, b] = DetailedViaSocket::make_pair(nic0, nic1, opt);
    s.delay(20_us);
    // 3 chunks > 2 credits: the send must stall on credit return.
    auto r = a->send_for(net::Message{.bytes = 3 * 4096}, 5_ms);
    failed_at = s.now();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kTimeout);
    (void)b;
    reached_end = true;
  });
  s.run();
  EXPECT_TRUE(reached_end);
  EXPECT_LT(failed_at, 1_s);
}

TEST(SocketTimeoutTest, RdmaSlotStallTimesOut) {
  // RDMA push flow control: ring slots come back only when the receiver
  // consumes; a stalled receiver means slot exhaustion, then kTimeout.
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  stall_forever(cluster, 1);
  via::Nic nic0(&s, &cluster.node(0));
  via::Nic nic1(&s, &cluster.node(1));
  bool reached_end = false;
  SimTime failed_at;
  s.spawn("app", [&] {
    ViaSocketOptions opt;
    opt.chunk_bytes = 4096;
    opt.credits = 2;
    opt.credit_batch = 1;
    opt.data_path = ViaDataPath::kRdmaWrite;
    auto [a, b] = DetailedViaSocket::make_pair(nic0, nic1, opt);
    s.delay(20_us);
    auto r = a->send_for(net::Message{.bytes = 3 * 4096}, 5_ms);
    failed_at = s.now();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kTimeout);
    (void)b;
    reached_end = true;
  });
  s.run();
  EXPECT_TRUE(reached_end);
  EXPECT_LT(failed_at, 1_s);
}

TEST(SocketTimeoutTest, DetailedTcpSendTimesOutWhenPeerStopsAcking) {
  // The stalled receiver cannot run its protocol processing, so no ACKs
  // come back, the socket buffer stays full, and the timed send fails.
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  stall_forever(cluster, 1);
  SocketFactory factory(&s, &cluster, Fidelity::kDetailed);
  bool reached_end = false;
  SimTime failed_at;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kKernelTcp);
    s.delay(20_us);
    // Larger than the 64 KiB socket buffer: can only complete with ACKs.
    auto r = a->send_for(net::Message{.bytes = 256_KiB}, 20_ms);
    failed_at = s.now();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kTimeout);
    (void)b;
    reached_end = true;
  });
  s.run();
  EXPECT_TRUE(reached_end);
  EXPECT_LT(failed_at, 1_s);
}

TEST(SocketTimeoutTest, DetailedTcpRecvForTimesOutAndThenDelivers) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, Fidelity::kDetailed);
  bool reached_end = false;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kKernelTcp);
    auto r = b->recv_for(2_ms);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kTimeout);
    s.spawn("tx", [&s, a = std::move(a)]() mutable {
      a->send(net::Message{.bytes = 8192, .tag = 3});
      a->close_send();
    });
    auto ok = b->recv_for(1_s);
    ASSERT_TRUE(ok.ok());
    ASSERT_TRUE(ok.value().has_value());
    EXPECT_EQ(ok.value()->tag, 3u);
    EXPECT_EQ(ok.value()->bytes, 8192u);
    auto eof = b->recv_for(1_s);
    ASSERT_TRUE(eof.ok());
    EXPECT_FALSE(eof.value().has_value());
    reached_end = true;
  });
  s.run();
  EXPECT_TRUE(reached_end);
}

TEST(SocketTimeoutTest, ZeroTimeoutMeansWaitForever) {
  // timeout <= 0 degrades to the untimed blocking call — it must succeed
  // even when the data arrives "late".
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster);
  bool reached_end = false;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
    s.spawn("tx", [&s, a = std::move(a)]() mutable {
      s.delay(50_ms);
      a->send(net::Message{.bytes = 64});
      a->close_send();
    });
    auto r = b->recv_for(SimTime::zero());
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().has_value());
    EXPECT_EQ(r.value()->bytes, 64u);
    reached_end = true;
  });
  s.run();
  EXPECT_TRUE(reached_end);
}

/// What a pair maker builds besides the pair: it must outlive the pair's
/// traffic and be destroyed before the simulation.
struct PairOwner {
  std::unique_ptr<SocketFactory> factory;
  std::vector<std::unique_ptr<via::Nic>> nics;
};
/// One socket pair under test, built inside the simulation's app process.
using PairMaker =
    std::function<SocketPair(sim::Simulation&, net::Cluster&, PairOwner&)>;

struct PingPongRun {
  /// (sent_at, delivered_at) of every message, in receive order.
  std::vector<std::pair<SimTime, SimTime>> stamps;
  std::string trace;
};

/// Traced ping-pong at 4 B, 1460 B, 4 KiB and 64 KiB: each message goes
/// a -> b and is echoed back. `timed` drives every operation through
/// send_for()/recv_for() with a 1 s deadline that never trips; otherwise
/// through send()/recv().
PingPongRun ping_pong(const PairMaker& make, bool timed) {
  sim::Simulation s;
  s.obs().tracer.enable();
  net::Cluster cluster(&s, 2);
  PairOwner owner;
  PingPongRun run;
  const auto send = [timed](SvSocket& sock, net::Message m) {
    if (timed) {
      ASSERT_TRUE(sock.send_for(std::move(m), 1_s).ok());
    } else {
      sock.send(std::move(m));
    }
  };
  const auto recv = [timed](SvSocket& sock) -> std::optional<net::Message> {
    if (!timed) return sock.recv();
    auto r = sock.recv_for(1_s);
    EXPECT_TRUE(r.ok());
    return r.ok() ? std::move(r.value()) : std::nullopt;
  };
  s.spawn("app", [&] {
    auto [a, b] = make(s, cluster, owner);
    s.spawn("echo", [&, b = std::move(b)]() mutable {
      while (auto m = recv(*b)) {
        run.stamps.emplace_back(m->sent_at, m->delivered_at);
        send(*b, net::Message{.bytes = m->bytes, .tag = m->tag});
      }
      b->close_send();
    });
    for (const std::uint64_t bytes :
         {std::uint64_t{4}, std::uint64_t{1460}, 4_KiB, 64_KiB}) {
      send(*a, net::Message{.bytes = bytes, .tag = bytes});
      auto m = recv(*a);
      ASSERT_TRUE(m.has_value());
      run.stamps.emplace_back(m->sent_at, m->delivered_at);
    }
    a->close_send();
    EXPECT_FALSE(recv(*a).has_value());
  });
  s.run();
  run.trace = s.obs().tracer.canonical();
  return run;
}

TEST(SocketTimeoutTest, UntrippedDeadlineMatchesNoDeadline) {
  const auto factory_pair = [](Fidelity fidelity, net::Transport transport) {
    return [fidelity, transport](sim::Simulation& s, net::Cluster& cluster,
                                 PairOwner& owner) {
      owner.factory = std::make_unique<SocketFactory>(&s, &cluster, fidelity);
      return owner.factory->connect(0, 1, transport);
    };
  };
  const std::vector<std::pair<std::string, PairMaker>> cases = {
      {"fast SocketVIA",
       factory_pair(Fidelity::kFast, net::Transport::kSocketVia)},
      {"fast kernel TCP",
       factory_pair(Fidelity::kFast, net::Transport::kKernelTcp)},
      {"fast raw VIA", factory_pair(Fidelity::kFast, net::Transport::kVia)},
      {"detailed SocketVIA",
       factory_pair(Fidelity::kDetailed, net::Transport::kSocketVia)},
      {"detailed kernel TCP",
       factory_pair(Fidelity::kDetailed, net::Transport::kKernelTcp)},
      {"RDMA push",
       [](sim::Simulation& s, net::Cluster& cluster, PairOwner& owner) {
         auto& nics = owner.nics;
         nics.push_back(std::make_unique<via::Nic>(&s, &cluster.node(0)));
         nics.push_back(std::make_unique<via::Nic>(&s, &cluster.node(1)));
         return DetailedViaSocket::make_pair(
             *nics[0], *nics[1], {.data_path = ViaDataPath::kRdmaWrite});
       }},
      {"DataCutter local",
       [](sim::Simulation& s, net::Cluster& cluster, PairOwner&) {
         return dc::LocalSocket::make_pair(&s, &cluster.node(0), "local");
       }},
  };
  for (const auto& [name, make] : cases) {
    SCOPED_TRACE(name);
    const PingPongRun plain = ping_pong(make, /*timed=*/false);
    const PingPongRun timed = ping_pong(make, /*timed=*/true);
    EXPECT_EQ(plain.stamps.size(), 8u);
    EXPECT_EQ(plain.stamps, timed.stamps);
    EXPECT_NE(plain.trace.find("socket."), std::string::npos)
        << "the trace records the socket operations";
    EXPECT_EQ(plain.trace, timed.trace);
  }
}

}  // namespace
}  // namespace sv::sockets
