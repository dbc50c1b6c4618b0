// TCP loss recovery: RTO expiry, exponential backoff, fast retransmit on
// three duplicate ACKs, and the property that a lossy transfer still
// delivers every byte in order — deterministically per seed.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "net/fault.h"
#include "tcpstack/tcp.h"

namespace sv::tcpstack {
namespace {

using namespace sv::literals;

struct Fixture {
  explicit Fixture(const net::FaultPlan& plan, std::uint64_t seed = 1)
      : cluster(&s, 2) {
    cluster.install_faults(plan, seed);
    stack0 = std::make_unique<TcpStack>(&s, &cluster.node(0));
    stack1 = std::make_unique<TcpStack>(&s, &cluster.node(1));
  }
  sim::Simulation s;
  net::Cluster cluster;
  std::unique_ptr<TcpStack> stack0;
  std::unique_ptr<TcpStack> stack1;
};

TEST(TcpLossTest, RtoExpiryRetransmitsLoneSegment) {
  // Drop the very first data segment on 0->1. Nothing else is in flight,
  // so no dup ACKs can arrive: recovery must come from the RTO timer.
  net::FaultPlan plan;
  plan.links[{0, 1}].drop_frames = {0};
  Fixture f(plan);
  std::shared_ptr<TcpConnection> sender;
  SimTime delivered;
  f.s.spawn("app", [&] {
    auto [a, b] = TcpStack::connect(*f.stack0, *f.stack1);
    sender = a;
    f.s.spawn("rx", [&, b] {
      EXPECT_EQ(b->recv_exact(1000), 1000u);
      delivered = f.s.now();
      EXPECT_EQ(b->recv(1), 0u);  // EOF
    });
    a->send(1000);
    a->close();
  });
  f.s.run();
  EXPECT_EQ(sender->rto_expirations(), 1u);
  EXPECT_GE(sender->segments_retransmitted(), 1u);
  EXPECT_EQ(sender->fast_retransmits(), 0u);
  // The byte could not arrive before one full RTO had elapsed.
  EXPECT_GE(delivered, kRtoInitial);
}

TEST(TcpLossTest, RtoBacksOffExponentiallyAndResetsOnAck) {
  // Drop the first three transmissions of the segment: recovery takes
  // rto + 2*rto + 4*rto of timer waits before the fourth copy lands.
  net::FaultPlan plan;
  plan.links[{0, 1}].drop_frames = {0, 1, 2};
  Fixture f(plan);
  std::shared_ptr<TcpConnection> sender;
  SimTime delivered;
  f.s.spawn("app", [&] {
    auto [a, b] = TcpStack::connect(*f.stack0, *f.stack1);
    sender = a;
    f.s.spawn("rx", [&, b] {
      EXPECT_EQ(b->recv_exact(1000), 1000u);
      delivered = f.s.now();
      b->recv(1);
    });
    a->send(1000);
    // Close only after delivery so the FIN is not one of frames 0-2.
    while (f.s.now() < delivered || delivered == SimTime::zero()) {
      f.s.delay(100_us);
    }
    a->close();
  });
  f.s.run();
  const SimTime rto = kRtoInitial;
  EXPECT_EQ(sender->rto_expirations(), 3u);
  EXPECT_EQ(sender->segments_retransmitted(), 3u);
  EXPECT_GE(delivered, rto * 7);  // 1 + 2 + 4 RTOs of waiting
  // ACK progress resets the backoff for the next timer arm.
  EXPECT_EQ(sender->current_rto(), rto);
}

TEST(TcpLossTest, FastRetransmitAfterThreeDupAcks) {
  // Drop the first of eight MSS-sized segments; the seven that follow
  // arrive out of order and trigger immediate dup ACKs, so the hole is
  // repaired by fast retransmit long before the RTO fires.
  net::FaultPlan plan;
  plan.links[{0, 1}].drop_frames = {0};
  Fixture f(plan);
  TcpOptions opt;
  opt.nagle = false;  // keep all eight segments in flight
  const std::uint64_t total = 8ull * opt.mss;
  std::shared_ptr<TcpConnection> sender;
  std::shared_ptr<TcpConnection> receiver;
  SimTime delivered;
  f.s.spawn("app", [&] {
    auto [a, b] = TcpStack::connect(*f.stack0, *f.stack1, opt);
    sender = a;
    receiver = b;
    f.s.spawn("rx", [&, b, total] {
      EXPECT_EQ(b->recv_exact(total), total);
      delivered = f.s.now();
      b->recv(1);
    });
    a->send(total);
    a->close();
  });
  f.s.run();
  EXPECT_EQ(sender->fast_retransmits(), 1u);
  EXPECT_EQ(sender->rto_expirations(), 0u);
  EXPECT_GE(sender->dup_acks_received(), 3u);
  EXPECT_GE(receiver->ooo_segments_received(), 3u);
  EXPECT_EQ(sender->segments_retransmitted(), 1u);
  // Dup-ACK recovery beats the timer by an order of magnitude.
  EXPECT_LT(delivered, kRtoInitial);
}

TEST(TcpLossTest, LossFreeRunsKeepCountersAtZero) {
  Fixture f(net::FaultPlan::none());
  std::shared_ptr<TcpConnection> sender;
  f.s.spawn("app", [&] {
    auto [a, b] = TcpStack::connect(*f.stack0, *f.stack1);
    sender = a;
    f.s.spawn("rx", [b] {
      b->recv_exact(256 * 1024);
      b->recv(1);
    });
    for (int i = 0; i < 4; ++i) a->send(64 * 1024);
    a->close();
  });
  f.s.run();
  EXPECT_EQ(sender->segments_retransmitted(), 0u);
  EXPECT_EQ(sender->rto_expirations(), 0u);
  EXPECT_EQ(sender->fast_retransmits(), 0u);
  EXPECT_EQ(sender->dup_acks_received(), 0u);
}

// Property test: across seeds, a 5%-lossy transfer delivers exactly the
// bytes sent (the stream abstraction holds), recovery counters are
// consistent with the injected drops, and the run replays bit-identically.
TEST(TcpLossTest, LossyTransferDeliversAllBytesAcrossSeeds) {
  const std::uint64_t total = 32ull * 8192;
  auto run = [total](std::uint64_t seed) {
    Fixture f(net::FaultPlan::uniform_loss(0.05), seed);
    std::shared_ptr<TcpConnection> sender;
    std::shared_ptr<TcpConnection> receiver;
    f.s.spawn("app", [&] {
      auto [a, b] = TcpStack::connect(*f.stack0, *f.stack1);
      sender = a;
      receiver = b;
      f.s.spawn("rx", [b, total] {
        EXPECT_EQ(b->recv_exact(total), total);
        EXPECT_EQ(b->recv(1), 0u);  // clean EOF after a lossy stream
      });
      for (int i = 0; i < 32; ++i) a->send(8192);
      a->close();
    });
    f.s.run();
    EXPECT_EQ(receiver->bytes_received(), total) << "seed " << seed;
    EXPECT_EQ(sender->bytes_sent(), total);
    const auto* inj = f.cluster.fault_injector();
    EXPECT_NE(inj, nullptr);
    if (inj != nullptr) {
      EXPECT_GT(inj->frames_dropped(), 0u) << "seed " << seed;
    }
    // Every recovery is a retransmission: at least one per dropped data
    // segment burst (dropped ACKs recover for free via later cumulative
    // ACKs, so >= is the strongest valid bound).
    EXPECT_GT(sender->segments_retransmitted() +
                  receiver->segments_retransmitted(),
              0u);
    return f.s.engine().trace_digest();
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto digest = run(seed);
    EXPECT_EQ(digest, run(seed)) << "replay diverged for seed " << seed;
  }
}

}  // namespace
}  // namespace sv::tcpstack
