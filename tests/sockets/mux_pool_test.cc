// SendMux's full-lane contract: submit() never blocks an open-loop
// generator. A record that would overflow its lane's queue bound is
// dropped at once (counted under mux.drops) and leaves no trace in the
// queue; the records the lane admitted still deliver.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "sockets/mux.h"

namespace sv::sockets {
namespace {

TEST(MuxPoolTest, DroppedRecordsReleaseBuffersBackToPool) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  const std::uint64_t kBytes = 1024;
  const int kSubmissions = 32;

  SendMuxConfig cfg;
  // Lane cap admits exactly two records; everything after drops.
  cfg.queue_cap_bytes = 2 * kBytes;

  std::uint64_t delivered = 0;
  auto mux = std::make_unique<SendMux>(
      &s, &cluster, /*node=*/0, cfg,
      [&](int, const MuxRecord& rec, SimTime) {
        delivered += rec.bytes > 0 ? 1 : 0;
      });
  const std::uint64_t conn = mux->open_connection(1);

  // All submissions happen at t=0, before the sender process first runs,
  // so admission is decided purely by the lane cap: 2 accepted, 30
  // dropped. A drop takes nothing from the lane's byte budget.
  int accepted = 0;
  for (int i = 0; i < kSubmissions; ++i) {
    if (mux->submit(conn, kBytes)) ++accepted;
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(mux->drops(), static_cast<std::uint64_t>(kSubmissions - 2));

  const auto& reg = s.obs().registry;
  const obs::Gauge* queued = reg.find_gauge("mux.queued_bytes{node=node0}");
  ASSERT_NE(queued, nullptr);
  EXPECT_EQ(queued->value(), static_cast<std::int64_t>(2 * kBytes));
  EXPECT_EQ(reg.counter_value("mux.submitted{node=node0}"), 2u);

  mux->shutdown();
  s.run();

  // The two accepted records delivered, and the lane's queue emptied.
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(reg.counter_value("mux.delivered{node=node0}"), 2u);
  EXPECT_EQ(queued->value(), 0);
}

}  // namespace
}  // namespace sv::sockets
