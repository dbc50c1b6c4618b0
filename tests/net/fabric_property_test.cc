// Property tests: the executed fabric must agree with the closed-form cost
// model for uncontended transfers, across transports and message sizes.
#include <gtest/gtest.h>

#include "net/fabric.h"

namespace sv::net {
namespace {

using namespace sv::literals;

class FabricModelAgreement
    : public ::testing::TestWithParam<std::tuple<Transport, std::uint64_t>> {
};

TEST_P(FabricModelAgreement, UncontendedOneWayMatchesModel) {
  const auto transport = std::get<0>(GetParam());
  const auto bytes = std::get<1>(GetParam());
  sim::Simulation s;
  Cluster cluster(&s, 2);
  // Model agreement is defined on a loss-free fabric (DESIGN.md §6): the
  // closed-form model has no recovery term, so this property holds only
  // under FaultPlan::none(). Pinned explicitly so a future default-faulty
  // fixture cannot silently invalidate the comparison.
  cluster.install_faults(FaultPlan::none(), 1);
  Pipe pipe(&s, &cluster.node(0), &cluster.node(1),
            CalibrationProfile::for_transport(transport), "p");
  SimTime delivered;
  s.spawn("rx", [&] {
    pipe.recv();
    delivered = s.now();
  });
  s.spawn("tx", [&] { pipe.send(Message{.bytes = bytes}); });
  s.run();
  const SimTime predicted = pipe.model().one_way(bytes);
  // Frames equal segments, so the fabric should reproduce the closed form
  // up to integer rounding on the trailing partial segment.
  const double rel = std::abs(delivered.us() - predicted.us()) /
                     std::max(predicted.us(), 1e-9);
  EXPECT_LT(rel, 0.05) << "measured " << delivered.us() << "us vs model "
                       << predicted.us() << "us";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FabricModelAgreement,
    ::testing::Combine(::testing::Values(Transport::kVia,
                                         Transport::kSocketVia,
                                         Transport::kKernelTcp),
                       ::testing::Values(64ULL, 1024ULL, 4096ULL, 16384ULL,
                                         65536ULL, 1048576ULL)),
    [](const auto& param_info) {
      return std::string(transport_name(std::get<0>(param_info.param))) + "_" +
             std::to_string(std::get<1>(param_info.param)) + "B";
    });

class FabricStreamingAgreement : public ::testing::TestWithParam<Transport> {
};

TEST_P(FabricStreamingAgreement, SteadyStateRateMatchesStreamCycle) {
  const auto transport = GetParam();
  sim::Simulation s;
  Cluster cluster(&s, 2);
  // Loss-free by construction, as above: streaming rate has no recovery
  // term in the closed-form model.
  cluster.install_faults(FaultPlan::none(), 1);
  Pipe pipe(&s, &cluster.node(0), &cluster.node(1),
            CalibrationProfile::for_transport(transport), "p");
  const int kCount = 150;
  const std::uint64_t kBytes = 16_KiB;
  SimTime done;
  s.spawn("rx", [&] {
    for (int i = 0; i < kCount; ++i) pipe.recv();
    done = s.now();
  });
  s.spawn("tx", [&] {
    for (int i = 0; i < kCount; ++i) pipe.send(Message{.bytes = kBytes});
  });
  s.run();
  const double measured = throughput_mbps(kCount * kBytes, done);
  const double predicted = pipe.model().stream_bandwidth_mbps(kBytes);
  EXPECT_NEAR(measured, predicted, predicted * 0.10)
      << transport_name(transport);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, FabricStreamingAgreement,
                         ::testing::Values(Transport::kVia,
                                           Transport::kSocketVia,
                                           Transport::kKernelTcp),
                         [](const auto& param_info) {
                           return std::string(transport_name(param_info.param));
                         });

TEST(FabricEdgeTest, ZeroByteMessageDelivers) {
  sim::Simulation s;
  Cluster cluster(&s, 2);
  Pipe pipe(&s, &cluster.node(0), &cluster.node(1),
            CalibrationProfile::socket_via(), "p");
  bool got = false;
  s.spawn("rx", [&] { got = pipe.recv().has_value(); });
  s.spawn("tx", [&] { pipe.send(Message{.bytes = 0}); });
  s.run();
  EXPECT_TRUE(got);
}

TEST(FabricEdgeTest, ExactFrameMultiples) {
  // Messages of exactly 1x, 2x, 3x the frame size must all deliver with
  // monotone timing.
  sim::Simulation s;
  Cluster cluster(&s, 2);
  const auto prof = CalibrationProfile::socket_via();
  Pipe pipe(&s, &cluster.node(0), &cluster.node(1), prof, "p");
  std::vector<SimTime> times;
  s.spawn("rx", [&] {
    SimTime last = SimTime::zero();
    for (int i = 0; i < 3; ++i) {
      pipe.recv();
      times.push_back(s.now() - last);
      last = s.now();
    }
  });
  s.spawn("tx", [&] {
    for (std::uint64_t k = 1; k <= 3; ++k) {
      pipe.send(Message{.bytes = k * prof.pipeline_frame_bytes});
      // Space sends out so each is uncontended.
      s.delay(10_ms);
    }
  });
  s.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_LT(times[0], times[1]);
}

TEST(FabricEdgeTest, DestroyPipeMidFlightIsSafe) {
  // A pipe destroyed while messages are still in flight must not crash or
  // hang (the stage frames co-own the state).
  sim::Simulation s;
  Cluster cluster(&s, 2);
  auto pipe = std::make_unique<Pipe>(&s, &cluster.node(0), &cluster.node(1),
                                     CalibrationProfile::kernel_tcp(), "p");
  s.spawn("tx", [&s, p = std::move(pipe)]() mutable {
    for (int i = 0; i < 10; ++i) p->send(Message{.bytes = 64_KiB});
    p.reset();  // messages still crossing the wire
  });
  s.run();  // must terminate cleanly
  SUCCEED();
}

TEST(FabricEdgeTest, SenderContentionSerializesTxHost) {
  // Two pipes *out of* the same node share tx_host; aggregate send rate
  // halves relative to independent senders.
  sim::Simulation s;
  Cluster cluster(&s, 3);
  const auto prof = CalibrationProfile::kernel_tcp();
  Pipe pa(&s, &cluster.node(0), &cluster.node(1), prof, "a");
  Pipe pb(&s, &cluster.node(0), &cluster.node(2), prof, "b");
  const int kCount = 50;
  SimTime done_a, done_b;
  s.spawn("txa", [&] {
    for (int i = 0; i < kCount; ++i) pa.send(Message{.bytes = 16_KiB});
  });
  s.spawn("txb", [&] {
    for (int i = 0; i < kCount; ++i) pb.send(Message{.bytes = 16_KiB});
  });
  s.spawn("rxa", [&] {
    for (int i = 0; i < kCount; ++i) pa.recv();
    done_a = s.now();
  });
  s.spawn("rxb", [&] {
    for (int i = 0; i < kCount; ++i) pb.recv();
    done_b = s.now();
  });
  s.run();
  // Each stream sees roughly half the sender's host throughput; sanity
  // bound: completion takes at least 1.7x a single uncontended stream.
  CostModel model{prof};
  const SimTime single = model.sender_time(16_KiB) * kCount;
  EXPECT_GT(std::max(done_a, done_b).ns(), (single * 17 / 10).ns());
}

}  // namespace
}  // namespace sv::net
