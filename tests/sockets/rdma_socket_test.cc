// The detailed VIA socket on its RDMA push data path
// (ViaDataPath::kRdmaWrite).
#include <gtest/gtest.h>

#include "sockets/via_socket.h"

namespace sv::sockets {
namespace {

using namespace sv::literals;

ViaSocketOptions push_options() {
  ViaSocketOptions opt;
  opt.data_path = ViaDataPath::kRdmaWrite;
  return opt;
}

struct Fixture {
  sim::Simulation s;
  net::Cluster cluster{&s, 3};
  via::Nic nic0{&s, &cluster.node(0)};
  via::Nic nic1{&s, &cluster.node(1)};
};

TEST(RdmaPushSocketTest, DeliversMessagesInOrder) {
  Fixture f;
  std::vector<std::uint64_t> tags;
  f.s.spawn("app", [&] {
    auto [a, b] = DetailedViaSocket::make_pair(f.nic0, f.nic1,
                                                push_options());
    f.s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) tags.push_back(m->tag);
    });
    for (std::uint64_t i = 0; i < 10; ++i) {
      a->send(net::Message{.bytes = 5000 + i * 777, .tag = i});
    }
    a->close_send();
  });
  f.s.run();
  ASSERT_EQ(tags.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(tags[i], i);
}

TEST(RdmaPushSocketTest, MultiSlotMessagesRespectRingDepth) {
  Fixture f;
  ViaSocketOptions opt = push_options();
  opt.chunk_bytes = 4096;
  opt.credits = 2;
  opt.credit_batch = 1;
  std::uint64_t received = 0;
  f.s.spawn("app", [&] {
    auto [a, b] = DetailedViaSocket::make_pair(f.nic0, f.nic1, opt);
    f.s.spawn("rx", [&, b = std::move(b)]() mutable {
      while (auto m = b->recv()) received += m->bytes;
    });
    // 10 slots' worth per message through a 2-slot ring.
    for (int i = 0; i < 4; ++i) a->send(net::Message{.bytes = 40'960});
    a->close_send();
  });
  f.s.run();
  EXPECT_EQ(received, 4u * 40'960);
  EXPECT_EQ(f.nic1.recv_misses(), 0u);
}

TEST(RdmaPushSocketTest, SlotsReturnAtQuiescence) {
  Fixture f;
  std::uint32_t slots_after = 0;
  f.s.spawn("app", [&] {
    auto [a, b] = DetailedViaSocket::make_pair(f.nic0, f.nic1,
                                                push_options());
    auto* sender = dynamic_cast<DetailedViaSocket*>(a.get());
    f.s.spawn("rx", [&, b = std::move(b)]() mutable {
      for (int i = 0; i < 8; ++i) b->recv();
    });
    for (int i = 0; i < 8; ++i) a->send(net::Message{.bytes = 16_KiB});
    f.s.delay(5_ms);  // 8 x 16 KiB at ~99 MB/s plus credit returns
    slots_after = sender->available_credits();
  });
  f.s.run();
  EXPECT_EQ(slots_after, ViaSocketOptions{}.credits);
}

TEST(RdmaPushSocketTest, RejectsBadOptions) {
  Fixture f;
  ViaSocketOptions opt = push_options();
  opt.credits = 0;
  EXPECT_THROW(DetailedViaSocket::make_pair(f.nic0, f.nic1, opt),
               std::invalid_argument);
  opt.credits = 2;
  opt.credit_batch = 3;
  EXPECT_THROW(DetailedViaSocket::make_pair(f.nic0, f.nic1, opt),
               std::invalid_argument);
}

TEST(RdmaPushSocketTest, LowerSmallMessageLatencyThanTwoSided) {
  // One-sided advantage in this stack: no receive-descriptor matching or
  // socket bookkeeping on the data path, so small messages arrive a bit
  // earlier; throughput is wire-bound for both (see ext_rdma_pushpull).
  auto one_way = [](bool use_rdma) {
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    via::Nic nic0(&s, &cluster.node(0)), nic1(&s, &cluster.node(1));
    SimTime t;
    s.spawn("app", [&] {
      SocketPair pair = DetailedViaSocket::make_pair(
          nic0, nic1, use_rdma ? push_options() : ViaSocketOptions{});
      auto& [a, b] = pair;
      const SimTime t0 = s.now();
      s.spawn("rx", [&s, &t, t0, b = std::move(b)]() mutable {
        b->recv();
        t = s.now() - t0;
      });
      a->send(net::Message{.bytes = 2048});
    });
    s.run();
    return t;
  };
  const SimTime rdma = one_way(true);
  const SimTime two_sided = one_way(false);
  EXPECT_LT(rdma, two_sided);
  EXPECT_GT(rdma.us(), two_sided.us() * 0.5);  // same order of magnitude
}

}  // namespace
}  // namespace sv::sockets
