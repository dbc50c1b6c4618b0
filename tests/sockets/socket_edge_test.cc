// Edge-case and stress tests for the detailed socket backends.
#include <gtest/gtest.h>

#include "sockets/factory.h"
#include "sockets/tcp_socket.h"
#include "sockets/via_socket.h"

namespace sv::sockets {
namespace {

using namespace sv::literals;

TEST(ViaSocketEdgeTest, CreditStarvationRecovers) {
  // One credit, multi-chunk messages: the sender must stall per chunk and
  // still deliver everything in order.
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  via::Nic nic0(&s, &cluster.node(0)), nic1(&s, &cluster.node(1));
  ViaSocketOptions opt;
  opt.chunk_bytes = 4096;
  opt.credits = 1;
  opt.credit_batch = 1;
  std::vector<std::uint64_t> tags;
  s.spawn("app", [&] {
    auto [a, b] = DetailedViaSocket::make_pair(nic0, nic1, opt);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) tags.push_back(m->tag);
    });
    for (std::uint64_t i = 0; i < 5; ++i) {
      a->send(net::Message{.bytes = 20'000, .tag = i});  // 5 chunks each
    }
    a->close_send();
  });
  s.run();
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(nic1.recv_misses(), 0u);
}

TEST(ViaSocketEdgeTest, BidirectionalTrafficSharesOneVi) {
  // Data in both directions plus credits on the same VI pair must demux
  // cleanly.
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, Fidelity::kDetailed);
  int a_got = 0, b_got = 0;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
    s.spawn("peerB", [&, b = std::move(b)]() mutable {
      for (int i = 0; i < 20; ++i) {
        b->send(net::Message{.bytes = 10'000});
        if (b->recv()) ++b_got;
      }
      b->close_send();
    });
    for (int i = 0; i < 20; ++i) {
      a->send(net::Message{.bytes = 30'000});
      if (a->recv()) ++a_got;
    }
    a->close_send();
  });
  s.run();
  EXPECT_EQ(a_got, 20);
  EXPECT_EQ(b_got, 20);
}

TEST(ViaSocketEdgeTest, ZeroByteMessage) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, Fidelity::kDetailed);
  bool got = false;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      got = b->recv().has_value();
    });
    a->send(net::Message{.bytes = 0, .tag = 1});
  });
  s.run();
  EXPECT_TRUE(got);
}

TEST(TcpSocketEdgeTest, ManySmallFramesKeepBoundaries) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster, Fidelity::kDetailed);
  std::vector<std::uint64_t> sizes;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kKernelTcp);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) sizes.push_back(m->bytes);
    });
    for (std::uint64_t i = 1; i <= 30; ++i) {
      a->send(net::Message{.bytes = i * 100});
    }
    a->close_send();
  });
  s.run();
  ASSERT_EQ(sizes.size(), 30u);
  for (std::uint64_t i = 0; i < 30; ++i) EXPECT_EQ(sizes[i], (i + 1) * 100);
}

TEST(FastSocketEdgeTest, WindowOverrideChangesBackpressure) {
  // A tiny window forces the sender to pace at delivery speed.
  auto run_with_window = [](std::uint64_t window) {
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    SocketFactory factory(&s, &cluster);
    if (window != 0) factory.set_window_override(window);
    SimTime tx_done;
    s.spawn("app", [&] {
      auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
      s.spawn("rx", [&s, b = std::move(b)]() mutable {
        while (b->recv()) {
        }
      });
      for (int i = 0; i < 20; ++i) a->send(net::Message{.bytes = 16_KiB});
      tx_done = s.now();
      a->close_send();
    });
    s.run();
    return tx_done;
  };
  const SimTime tight = run_with_window(16 * 1024);
  const SimTime loose = run_with_window(512 * 1024);
  EXPECT_GT(tight.ns(), loose.ns() * 3 / 2);
}

}  // namespace
}  // namespace sv::sockets
