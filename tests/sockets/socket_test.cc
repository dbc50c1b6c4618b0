#include "sockets/factory.h"
#include "sockets/tcp_socket.h"
#include "sockets/via_socket.h"

#include <gtest/gtest.h>

#include <vector>

namespace sv::sockets {
namespace {

using namespace sv::literals;
using net::Transport;

class SocketApiTest
    : public ::testing::TestWithParam<std::tuple<Fidelity, Transport>> {
 protected:
  static std::string label() {
    const auto [fid, tr] = GetParam();
    return std::string(fid == Fidelity::kFast ? "fast" : "detailed") + "/" +
           net::transport_name(tr);
  }
};

TEST_P(SocketApiTest, RoundTripMessage) {
  const auto [fid, tr] = GetParam();
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, fid);
  std::uint64_t got_tag = 0;
  SimTime rtt;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, tr);
    s.spawn("echo", [&, b = std::move(b)]() mutable {
      auto m = b->recv();
      ASSERT_TRUE(m.has_value());
      b->send(*m);
    });
    const SimTime start = s.now();
    net::Message m;
    m.bytes = 512;
    m.tag = 77;
    a->send(m);
    auto back = a->recv();
    rtt = s.now() - start;
    ASSERT_TRUE(back.has_value());
    got_tag = back->tag;
  });
  s.run();
  EXPECT_EQ(got_tag, 77u);
  EXPECT_GT(rtt, SimTime::zero());
}

TEST_P(SocketApiTest, ManyMessagesStayOrdered) {
  const auto [fid, tr] = GetParam();
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, fid);
  std::vector<std::uint64_t> tags;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, tr);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      for (int i = 0; i < 50; ++i) {
        auto m = b->recv();
        ASSERT_TRUE(m.has_value());
        tags.push_back(m->tag);
      }
    });
    for (std::uint64_t i = 0; i < 50; ++i) {
      net::Message m;
      m.bytes = 100 + i * 37;  // varying sizes
      m.tag = i;
      a->send(m);
    }
  });
  s.run();
  ASSERT_EQ(tags.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(tags[i], i);
}

TEST_P(SocketApiTest, CloseDeliversEndOfStream) {
  const auto [fid, tr] = GetParam();
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, fid);
  int received = 0;
  bool saw_end = false;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, tr);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (b->recv()) ++received;
      saw_end = true;
    });
    for (int i = 0; i < 3; ++i) {
      net::Message m;
      m.bytes = 256;
      a->send(m);
    }
    a->close_send();
  });
  s.run();
  EXPECT_EQ(received, 3);
  EXPECT_TRUE(saw_end);
}

TEST_P(SocketApiTest, StatsAreAccurate) {
  const auto [fid, tr] = GetParam();
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, fid);
  SocketStats tx_stats{}, rx_stats{};
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, tr);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (b->recv()) {
      }
      rx_stats = b->stats();
    });
    a->send(net::Message{.bytes = 1000});
    a->send(net::Message{.bytes = 2000});
    a->close_send();
    tx_stats = a->stats();
  });
  s.run();
  EXPECT_EQ(tx_stats.messages_sent, 2u);
  EXPECT_EQ(tx_stats.bytes_sent, 3000u);
  EXPECT_EQ(rx_stats.messages_received, 2u);
  EXPECT_EQ(rx_stats.bytes_received, 3000u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SocketApiTest,
    ::testing::Values(
        std::make_tuple(Fidelity::kFast, Transport::kKernelTcp),
        std::make_tuple(Fidelity::kFast, Transport::kSocketVia),
        std::make_tuple(Fidelity::kFast, Transport::kVia),
        std::make_tuple(Fidelity::kDetailed, Transport::kKernelTcp),
        std::make_tuple(Fidelity::kDetailed, Transport::kSocketVia)),
    [](const ::testing::TestParamInfo<SocketApiTest::ParamType>& param_info) {
      return std::string(std::get<0>(param_info.param) == Fidelity::kFast
                             ? "Fast"
                             : "Detailed") +
             net::transport_name(std::get<1>(param_info.param));
    });

TEST(SocketFactoryTest, DetailedRawViaRejected) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, Fidelity::kDetailed);
  EXPECT_THROW(factory.connect(0, 1, Transport::kVia), std::invalid_argument);
}

TEST(SocketViaTest, CreditsAreSpentAndReturned) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, Fidelity::kDetailed);
  auto& nic0 = factory.via_nic(0);
  auto& nic1 = factory.via_nic(1);
  ViaSocketOptions opt;
  opt.chunk_bytes = 4096;
  opt.credits = 4;
  opt.credit_batch = 2;
  std::uint32_t credits_after = 99;
  std::uint64_t updates = 0;
  s.spawn("app", [&] {
    auto [a, b] = DetailedViaSocket::make_pair(nic0, nic1, opt);
    auto* sender = dynamic_cast<DetailedViaSocket*>(a.get());
    auto* receiver = dynamic_cast<DetailedViaSocket*>(b.get());
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      for (int i = 0; i < 8; ++i) b->recv();
    });
    // 8 x 1-chunk messages > 4 credits: forces credit waits + updates.
    for (int i = 0; i < 8; ++i) {
      a->send(net::Message{.bytes = 4096});
    }
    s.delay(1_ms);  // let trailing credit updates arrive
    credits_after = sender->available_credits();
    updates = receiver->credit_updates_sent();
  });
  s.run();
  EXPECT_EQ(credits_after, 4u);  // all credits returned at quiescence
  EXPECT_EQ(updates, 4u);        // 8 chunks / batch of 2
}

TEST(SocketViaTest, NeverTriggersViaReceiveMiss) {
  // The whole point of SocketVIA's credit scheme: no send may ever arrive
  // without a posted descriptor, even under heavy multi-chunk load.
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, Fidelity::kDetailed);
  auto& nic1 = factory.via_nic(1);
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, Transport::kSocketVia);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (b->recv()) {
      }
    });
    for (int i = 0; i < 20; ++i) {
      a->send(net::Message{.bytes = 100'000});  // multi-chunk messages
    }
    a->close_send();
  });
  s.run();
  EXPECT_EQ(nic1.recv_misses(), 0u);
}

TEST(SocketViaTest, RejectsBadOptions) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  via::Nic a(&s, &cluster.node(0)), b(&s, &cluster.node(1));
  ViaSocketOptions opt;
  opt.credits = 0;
  EXPECT_THROW(DetailedViaSocket::make_pair(a, b, opt),
               std::invalid_argument);
  opt.credits = 2;
  opt.credit_batch = 4;
  EXPECT_THROW(DetailedViaSocket::make_pair(a, b, opt),
               std::invalid_argument);
}

// --- Fast vs detailed agreement: the fidelity cross-validation ---

class FidelityAgreementTest : public ::testing::TestWithParam<Transport> {};

namespace {

SimTime measure_one_way(Fidelity fid, Transport tr, std::uint64_t bytes) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, fid);
  SimTime result;
  s.spawn("app", [&] {
    // The fast model corresponds to TCP_NODELAY semantics (no Nagle /
    // delayed-ACK stall on a trailing partial segment), which is what
    // latency-conscious middleware sets; compare like with like.
    SocketPair pair;
    if (fid == Fidelity::kDetailed && tr == Transport::kKernelTcp) {
      tcpstack::TcpOptions opt;
      opt.nagle = false;
      pair = DetailedTcpSocket::make_pair(factory.tcp_stack(0),
                                          factory.tcp_stack(1), opt);
    } else {
      pair = factory.connect(0, 1, tr);
    }
    auto& [a, b] = pair;
    const SimTime start = s.now();
    s.spawn("rx", [&, b = std::move(b), start]() mutable {
      b->recv();
      result = s.now() - start;
    });
    a->send(net::Message{.bytes = bytes});
  });
  s.run();
  return result;
}

}  // namespace

TEST_P(FidelityAgreementTest, OneWayTimesAgreeWithinTolerance) {
  const Transport tr = GetParam();
  for (std::uint64_t bytes : {64ULL, 1024ULL, 16'384ULL, 262'144ULL}) {
    const SimTime fast = measure_one_way(Fidelity::kFast, tr, bytes);
    const SimTime detailed = measure_one_way(Fidelity::kDetailed, tr, bytes);
    const double rel =
        std::abs(fast.us() - detailed.us()) / std::max(fast.us(), 1e-9);
    EXPECT_LT(rel, 0.30) << net::transport_name(tr) << " bytes=" << bytes
                         << " fast=" << fast.us()
                         << "us detailed=" << detailed.us() << "us";
  }
}

INSTANTIATE_TEST_SUITE_P(BothTransports, FidelityAgreementTest,
                         ::testing::Values(Transport::kKernelTcp,
                                           Transport::kSocketVia),
                         [](const auto& param_info) {
                           return std::string(
                               net::transport_name(param_info.param));
                         });

TEST(SocketHandlerHeapTest, FastPingPongSchedulesEveryHandlerInline) {
  // A Figure 4-style fast run, SocketVIA and kernel TCP: every event
  // handler it schedules, propagation included, fits the inline buffer.
  sim::Simulation s;
  net::Cluster cluster(&s, 4);
  SocketFactory factory(&s, &cluster, Fidelity::kFast);
  for (const Transport tr : {Transport::kSocketVia, Transport::kKernelTcp}) {
    // Each transport on its own pair of nodes.
    const std::size_t client = tr == Transport::kSocketVia ? 0 : 2;
    s.spawn("app", [&, tr, client] {
      auto [a, b] = factory.connect(client, client + 1, tr);
      s.spawn("pong", [b = std::move(b)]() mutable {
        while (auto m = b->recv()) b->send(*m);
      });
      for (std::uint64_t bytes : {4ULL, 1024ULL, 16'384ULL, 65'536ULL}) {
        for (int i = 0; i < 10; ++i) {
          a->send(net::Message{.bytes = bytes});
          ASSERT_TRUE(a->recv().has_value());
        }
      }
      a->close_send();
    });
  }
  s.run();
  EXPECT_GT(s.obs().registry.counter_value("socket.messages_sent"), 0u);
  EXPECT_EQ(s.obs().registry.counter_value("sim.arena_handler_heap"), 0u);
}

}  // namespace
}  // namespace sv::sockets
