// Demotion-path mux contracts (DESIGN.md §15): flush_lane sheds a
// degraded destination's queued records (counted under mux.flushed, never
// as drops), while the records of aggregates already on the pipe still
// deliver, each once and in submit order per lane. A mux owns no process.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "sockets/mux.h"

namespace sv::sockets {
namespace {

TEST(MuxFlushTest, FlushLaneShedsQueuedRecordsAndReleasesPayloads) {
  sim::Simulation s;
  net::Cluster cluster(&s, 3);
  const std::uint64_t kBytes = 512;

  std::uint64_t delivered = 0;
  SendMux mux(&s, &cluster, /*node=*/0, SendMuxConfig{},
              [&](int, const MuxRecord&, SimTime) { ++delivered; });
  const std::uint64_t to1 = mux.open_connection(1);
  const std::uint64_t to2 = mux.open_connection(2);

  // 6 records queued to node 1 and 2 to node 2, all at t=0 — the sender
  // stage has not drained anything yet.
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(mux.submit(to1, kBytes));
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(mux.submit(to2, kBytes));
  const auto& reg = s.obs().registry;
  const obs::Gauge* queued = reg.find_gauge("mux.queued_bytes{node=node0}");
  ASSERT_NE(queued, nullptr);
  EXPECT_EQ(queued->value(), static_cast<std::int64_t>(8 * kBytes));

  // Demote node 1: its queued records are shed and their bytes leave the
  // queue at once; the lane to node 2 is untouched.
  EXPECT_EQ(mux.flush_lane(1), 6u);
  EXPECT_EQ(queued->value(), static_cast<std::int64_t>(2 * kBytes));
  // Re-flushing an empty lane, or a lane that never existed, is a no-op.
  EXPECT_EQ(mux.flush_lane(1), 0u);
  EXPECT_EQ(mux.flush_lane(7), 0u);

  mux.shutdown();
  s.run();

  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(reg.counter_value("mux.flushed{node=node0}"), 6u);
  // Shed is not dropped: overflow accounting stays clean.
  EXPECT_EQ(reg.counter_value("mux.drops{node=node0}"), 0u);
  EXPECT_EQ(reg.counter_value("mux.delivered{node=node0}"), 2u);
  EXPECT_EQ(queued->value(), 0);
}

TEST(MuxFlushTest, InFlightRecordsDeliverOnceInSubmitOrderAcrossAFlush) {
  // 150 records to node 1 would make three aggregates (64 + 64 + 22, the
  // record cap), 15 to node 2 make one. Node 1 is flushed while its first
  // aggregate is on the pipe, then gets 70 more records (two aggregates).
  // Each record's size is unique, so a delivery names the record it
  // carries.
  constexpr std::uint64_t kFirst = 150;
  constexpr std::uint64_t kToNode2 = 15;
  constexpr std::uint64_t kAfterFlush = 70;
  struct Delivery {
    MuxRecord rec;
    SimTime at;
  };
  sim::Simulation s;
  net::Cluster cluster(&s, 3);
  std::map<int, std::vector<Delivery>> got;
  SendMux mux(&s, &cluster, /*node=*/0, SendMuxConfig{},
              [&](int dst, const MuxRecord& rec, SimTime at) {
                got[dst].push_back({rec, at});
              });
  const std::uint64_t to1 = mux.open_connection(1);
  const std::uint64_t to2 = mux.open_connection(2);
  std::uint64_t shed = 0;
  s.spawn("app", [&] {
    for (std::uint64_t i = 0; i < kFirst; ++i) {
      ASSERT_TRUE(mux.submit(to1, 100 + i));
    }
    for (std::uint64_t i = 0; i < kToNode2; ++i) {
      ASSERT_TRUE(mux.submit(to2, 1000 + i));
    }
    // By now the sender has put node 1's first aggregate on the pipe and
    // is still sending it: only the records still queued are shed.
    s.delay(SimTime::microseconds(1));
    shed = mux.flush_lane(1);
    for (std::uint64_t i = 0; i < kAfterFlush; ++i) {
      ASSERT_TRUE(mux.submit(to1, 2000 + i));
    }
    mux.shutdown();
  });
  s.run();

  // The first aggregate (64 records) delivers; the other 86 are shed.
  EXPECT_EQ(shed, kFirst - 64);
  EXPECT_EQ(s.obs().registry.counter_value("mux.flushed{node=node0}"), shed);
  // Each lane delivers its records once, in submit order, no record
  // before it was queued.
  const auto check = [&](int dst, std::uint64_t conn,
                         const std::vector<std::uint64_t>& want) {
    std::vector<std::uint64_t> seen;
    for (const Delivery& d : got[dst]) {
      seen.push_back(d.rec.bytes);
      EXPECT_EQ(d.rec.conn, conn);
      EXPECT_LE(d.rec.enqueued, d.at);
    }
    EXPECT_EQ(seen, want) << "lane to node " << dst;
  };
  std::vector<std::uint64_t> want1;
  for (std::uint64_t i = 0; i < kFirst - shed; ++i) want1.push_back(100 + i);
  for (std::uint64_t i = 0; i < kAfterFlush; ++i) want1.push_back(2000 + i);
  std::vector<std::uint64_t> want2;
  for (std::uint64_t i = 0; i < kToNode2; ++i) want2.push_back(1000 + i);
  EXPECT_EQ(got.size(), 2u);
  check(1, to1, want1);
  check(2, to2, want2);
}

TEST(SendMuxTest, SenderAndSinksSpawnNoProcess) {
  // The sender and each lane's sink are stages (DESIGN.md §5.2), not
  // processes: a mux owns no fiber.
  sim::Simulation s;
  net::Cluster cluster(&s, 3);
  std::uint64_t delivered = 0;
  SendMux mux(&s, &cluster, /*node=*/0, SendMuxConfig{},
              [&](int, const MuxRecord&, SimTime) { ++delivered; });
  const std::uint64_t to1 = mux.open_connection(1);
  const std::uint64_t to2 = mux.open_connection(2);
  EXPECT_EQ(s.live_process_count(), 0u);
  ASSERT_TRUE(mux.submit(to1, 512));
  ASSERT_TRUE(mux.submit(to2, 512));
  mux.shutdown();
  s.run();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(s.live_process_count(), 0u);
}

}  // namespace
}  // namespace sv::sockets
