#include "datacutter/runtime.h"

#include <gtest/gtest.h>

#include <vector>

#include "datacutter/local_socket.h"
#include "sim/task.h"

namespace sv::dc {
namespace {

using namespace sv::literals;

/// Source: emits `chunks` buffers of `bytes` per UOW.
class EmitterFilter : public Filter {
 public:
  EmitterFilter(int chunks, std::uint64_t bytes)
      : chunks_(chunks), bytes_(bytes) {}
  void process(FilterContext& ctx) override {
    for (int i = 0; i < chunks_; ++i) {
      DataBuffer b;
      b.bytes = bytes_;
      b.tag = static_cast<std::uint64_t>(i);
      ctx.write(std::move(b));
    }
  }

 private:
  int chunks_;
  std::uint64_t bytes_;
};

/// Sink: records what it sees.
struct SinkRecord {
  std::vector<std::uint64_t> tags;
  std::vector<std::uint64_t> uows;
  int uow_count = 0;
  bool finalized = false;
  int init_count = 0;
};

class RecordingSink : public Filter {
 public:
  explicit RecordingSink(SinkRecord* rec) : rec_(rec) {}
  void init(FilterContext&) override { rec_->init_count++; }
  void process(FilterContext& ctx) override {
    bool any = false;
    while (auto b = ctx.read()) {
      rec_->tags.push_back(b->tag);
      rec_->uows.push_back(b->uow_id);
      any = true;
    }
    if (any) rec_->uow_count++;
  }
  void finalize(FilterContext&) override { rec_->finalized = true; }

 private:
  SinkRecord* rec_;
};

struct Fixture {
  sim::Simulation s;
  net::Cluster cluster{&s, 8};
  sockets::SocketFactory factory{&s, &cluster};
};

FilterGroup simple_group(SinkRecord* rec, int chunks, std::uint64_t bytes,
                         SchedPolicy policy = SchedPolicy::kDemandDriven) {
  FilterGroup g;
  g.add_filter("src",
               [chunks, bytes] {
                 return std::make_unique<EmitterFilter>(chunks, bytes);
               },
               {0});
  g.add_filter("sink", [rec] { return std::make_unique<RecordingSink>(rec); },
               {1});
  g.add_stream("src", "sink", policy);
  return g;
}

TEST(RuntimeTest, SingleUowFlowsThroughPipeline) {
  Fixture f;
  SinkRecord rec;
  Runtime rt(&f.s, &f.cluster, &f.factory, simple_group(&rec, 5, 1024));
  rt.start();
  rt.submit(Uow{.id = 1});
  rt.close_input();
  f.s.run();
  EXPECT_EQ(rec.tags, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rec.uow_count, 1);
  EXPECT_TRUE(rec.finalized);
  EXPECT_EQ(rec.init_count, 1);
  for (auto u : rec.uows) EXPECT_EQ(u, 1u);
}

TEST(RuntimeTest, MultipleUowsAreSeparated) {
  Fixture f;
  SinkRecord rec;
  Runtime rt(&f.s, &f.cluster, &f.factory, simple_group(&rec, 3, 256));
  rt.start();
  for (std::uint64_t q = 1; q <= 4; ++q) rt.submit(Uow{.id = q});
  rt.close_input();
  f.s.run();
  EXPECT_EQ(rec.uow_count, 4);
  EXPECT_EQ(rec.tags.size(), 12u);
  // UOW ids must be grouped: 1,1,1,2,2,2,...
  for (std::size_t i = 0; i < rec.uows.size(); ++i) {
    EXPECT_EQ(rec.uows[i], i / 3 + 1);
  }
}

TEST(RuntimeTest, CompletionsEmittedPerUow) {
  Fixture f;
  SinkRecord rec;
  Runtime rt(&f.s, &f.cluster, &f.factory, simple_group(&rec, 2, 128));
  rt.start();
  std::vector<std::uint64_t> completed;
  f.s.spawn("watcher", [&] {
    for (int i = 0; i < 3; ++i) {
      auto c = rt.wait_completion();
      ASSERT_TRUE(c.has_value());
      completed.push_back(c->uow_id);
      EXPECT_EQ(c->filter, "sink");
    }
  });
  for (std::uint64_t q = 10; q < 13; ++q) rt.submit(Uow{.id = q});
  rt.close_input();
  f.s.run();
  EXPECT_EQ(completed, (std::vector<std::uint64_t>{10, 11, 12}));
}

TEST(RuntimeTest, RoundRobinDistributesEvenly) {
  Fixture f;
  SinkRecord rec0, rec1, rec2;
  FilterGroup g;
  g.add_filter("src",
               [] { return std::make_unique<EmitterFilter>(12, 2048); }, {0});
  // A 3-copy middle filter that forwards everything to one sink.
  struct Forward : Filter {
    void process(FilterContext& ctx) override {
      while (auto b = ctx.read()) ctx.write(std::move(*b));
    }
  };
  g.add_filter("mid", [] { return std::make_unique<Forward>(); }, {1, 2, 3});
  g.add_filter("sink", [&rec0] { return std::make_unique<RecordingSink>(&rec0); },
               {4});
  g.add_stream("src", "mid", SchedPolicy::kRoundRobin);
  g.add_stream("mid", "sink", SchedPolicy::kDemandDriven);
  Runtime rt(&f.s, &f.cluster, &f.factory, std::move(g));
  rt.start();
  rt.submit(Uow{.id = 1});
  rt.close_input();
  f.s.run();
  EXPECT_EQ(rec0.tags.size(), 12u);
  const auto dist = rt.distribution(0);  // src -> mid
  ASSERT_EQ(dist.size(), 1u);
  ASSERT_EQ(dist[0].size(), 3u);
  EXPECT_EQ(dist[0][0], 4u);
  EXPECT_EQ(dist[0][1], 4u);
  EXPECT_EQ(dist[0][2], 4u);
}

TEST(RuntimeTest, DemandDrivenFavorsFastCopy) {
  // Two consumer copies, one on a 8x-slow node: DD should route most
  // buffers to the fast copy.
  sim::Simulation s;
  net::Cluster cluster(&s, 4);
  sockets::SocketFactory factory(&s, &cluster);
  // Slow down node 2 by running its compute 8x longer via filter logic.
  struct Worker : Filter {
    void process(FilterContext& ctx) override {
      const int factor = ctx.node().id() == 2 ? 8 : 1;
      while (auto b = ctx.read()) {
        ctx.compute(PerByteCost::nanos_per_byte(18).for_bytes(b->bytes) *
                    factor);
        ctx.write(std::move(*b));
      }
    }
  };
  SinkRecord rec;
  FilterGroup g;
  g.add_filter("src",
               [] { return std::make_unique<EmitterFilter>(64, 16_KiB); },
               {0});
  g.add_filter("work", [] { return std::make_unique<Worker>(); }, {1, 2});
  g.add_filter("sink",
               [&rec] { return std::make_unique<RecordingSink>(&rec); }, {3});
  g.add_stream("src", "work", SchedPolicy::kDemandDriven);
  g.add_stream("work", "sink", SchedPolicy::kDemandDriven);
  Runtime rt(&s, &cluster, &factory, std::move(g));
  rt.start();
  rt.submit(Uow{.id = 1});
  rt.close_input();
  s.run();
  EXPECT_EQ(rec.tags.size(), 64u);
  const auto dist = rt.distribution(0);
  const auto fast = dist[0][0];
  const auto slow = dist[0][1];
  EXPECT_GT(fast, slow * 3) << "fast=" << fast << " slow=" << slow;
}

TEST(RuntimeTest, MultiProducerFanInWaitsForAllMarkers) {
  // Three source copies each emit 2 buffers per UOW; the sink must see all
  // 6 before the UOW ends.
  Fixture f;
  SinkRecord rec;
  FilterGroup g;
  g.add_filter("src",
               [] { return std::make_unique<EmitterFilter>(2, 512); },
               {0, 1, 2});
  g.add_filter("sink",
               [&rec] { return std::make_unique<RecordingSink>(&rec); }, {3});
  g.add_stream("src", "sink");
  Runtime rt(&f.s, &f.cluster, &f.factory, std::move(g));
  rt.start();
  rt.submit(Uow{.id = 1});
  rt.submit(Uow{.id = 2});
  rt.close_input();
  f.s.run();
  EXPECT_EQ(rec.uow_count, 2);
  EXPECT_EQ(rec.tags.size(), 12u);  // 3 copies x 2 buffers x 2 UOWs
  // First 6 entries belong to UOW 1, next 6 to UOW 2 (no interleaving).
  for (std::size_t i = 0; i < rec.uows.size(); ++i) {
    EXPECT_EQ(rec.uows[i], i / 6 + 1) << "i=" << i;
  }
}

TEST(RuntimeTest, SameNodePlacementUsesLocalPath) {
  // Producer and consumer on one node: flows through LocalSocket; still
  // correct, and much faster than a network hop.
  Fixture f;
  SinkRecord rec;
  FilterGroup g;
  g.add_filter("src",
               [] { return std::make_unique<EmitterFilter>(4, 4096); }, {5});
  g.add_filter("sink",
               [&rec] { return std::make_unique<RecordingSink>(&rec); }, {5});
  g.add_stream("src", "sink");
  Runtime rt(&f.s, &f.cluster, &f.factory, std::move(g));
  rt.start();
  rt.submit(Uow{.id = 1});
  rt.close_input();
  f.s.run();
  EXPECT_EQ(rec.tags.size(), 4u);
  // Everything local: should complete in tens of microseconds.
  EXPECT_LT(f.s.now(), 100_us);
}

TEST(RuntimeTest, PipeliningOverlapsUows) {
  // With computation in the middle stage, UOW k+1's data should be fetched
  // while UOW k computes: total time must be well under the serial sum.
  sim::Simulation s;
  net::Cluster cluster(&s, 3);
  sockets::SocketFactory factory(&s, &cluster);
  struct Worker : Filter {
    void process(FilterContext& ctx) override {
      while (auto b = ctx.read()) {
        ctx.compute(1_ms);
        ctx.write(std::move(*b));
      }
    }
  };
  SinkRecord rec;
  FilterGroup g;
  g.add_filter("src", [] { return std::make_unique<EmitterFilter>(1, 64_KiB); },
               {0});
  g.add_filter("work", [] { return std::make_unique<Worker>(); }, {1});
  g.add_filter("sink",
               [&rec] { return std::make_unique<RecordingSink>(&rec); }, {2});
  g.add_stream("src", "work");
  g.add_stream("work", "sink");
  Runtime rt(&s, &cluster, &factory, std::move(g));
  rt.start();
  for (std::uint64_t q = 1; q <= 10; ++q) rt.submit(Uow{.id = q});
  rt.close_input();
  s.run();
  EXPECT_EQ(rec.uow_count, 10);
  // Serial: 10 * (transfer ~0.7ms + 1ms compute + transfer) >> 17ms.
  // Pipelined: compute dominates: ~10ms + edges.
  EXPECT_LT(s.now(), 14_ms);
  EXPECT_GT(s.now(), 10_ms);
}

TEST(RuntimeTest, SubmitBeforeStartThrows) {
  Fixture f;
  SinkRecord rec;
  Runtime rt(&f.s, &f.cluster, &f.factory, simple_group(&rec, 1, 64));
  EXPECT_THROW(rt.submit(Uow{.id = 1}), std::logic_error);
}

TEST(RuntimeTest, StartTwiceThrows) {
  Fixture f;
  SinkRecord rec;
  Runtime rt(&f.s, &f.cluster, &f.factory, simple_group(&rec, 1, 64));
  rt.start();
  EXPECT_THROW(rt.start(), std::logic_error);
}

/// A demand-driven source on node 0 feeding sink copies on `placement`.
FilterGroup dd_fan_out(SinkRecord* rec, std::vector<std::size_t> placement) {
  FilterGroup g;
  g.add_filter(
      "src", [] { return std::make_unique<EmitterFilter>(6, 20'000); }, {0});
  g.add_filter("sink", [rec] { return std::make_unique<RecordingSink>(rec); },
               std::move(placement));
  g.add_stream("src", "sink", SchedPolicy::kDemandDriven);
  return g;
}

TEST(RuntimeTest, FilterCopiesAreTheOnlyProcesses) {
  // Fan-ins and demand-driven ack drains are stages (DESIGN.md §5.2).
  Fixture f;
  SinkRecord rec;
  Runtime rt(&f.s, &f.cluster, &f.factory, dd_fan_out(&rec, {0, 1, 2}));
  rt.start();
  EXPECT_EQ(f.s.live_process_count(), 4u);
  rt.submit(Uow{.id = 1});
  rt.close_input();
  f.s.run();
  EXPECT_EQ(rec.tags.size(), 6u);
  EXPECT_EQ(f.s.live_process_count(), 0u);
}

TEST(RuntimeTest, DestroyedSimulationFreesStagesWaitingInReceiveTasks) {
  // At the end of a run every ack drain still waits in its socket's
  // receive task (the consumers never close the return direction) and
  // each SocketVIA demux on its completion queue; destroying the
  // simulation frees their frames, with no process to unwind.
  const std::size_t frames = sim::task_frames_in_use();
  {
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kDetailed);
    SinkRecord rec;
    Runtime rt(&s, &cluster, &factory, dd_fan_out(&rec, {0, 1}),
               RuntimeOptions{.transport = net::Transport::kSocketVia});
    rt.start();
    rt.submit(Uow{.id = 1});
    rt.close_input();
    s.run();
    EXPECT_EQ(rec.tags.size(), 6u);
    EXPECT_EQ(s.live_process_count(), 0u);
    // Two ack drains, each in a socket's task awaiting a channel's.
    EXPECT_EQ(sim::task_frames_in_use(), frames + 4);
  }
  EXPECT_EQ(sim::task_frames_in_use(), frames);
}

TEST(FilterGroupTest, ValidationCatchesMistakes) {
  FilterGroup dangling;
  dangling.add_filter("a", [] { return nullptr; }, {0});
  dangling.add_stream("a", "ghost");
  EXPECT_THROW(dangling.validate(), std::invalid_argument);

  FilterGroup dup;
  dup.add_filter("a", [] { return nullptr; }, {0});
  dup.add_filter("a", [] { return nullptr; }, {1});
  EXPECT_THROW(dup.validate(), std::invalid_argument);

  FilterGroup empty_placement;
  empty_placement.add_filter("a", [] { return nullptr; }, {});
  EXPECT_THROW(empty_placement.validate(), std::invalid_argument);

  FilterGroup self_loop;
  self_loop.add_filter("a", [] { return std::make_unique<EmitterFilter>(1, 1); },
                       {0});
  self_loop.add_stream("a", "a");
  EXPECT_THROW(self_loop.validate(), std::invalid_argument);
}

TEST(FilterGroupTest, StreamIndexLookups) {
  FilterGroup g;
  g.add_filter("a", [] { return nullptr; }, {0});
  g.add_filter("b", [] { return nullptr; }, {0});
  g.add_filter("c", [] { return nullptr; }, {0});
  g.add_stream("a", "b");
  g.add_stream("b", "c");
  g.add_stream("a", "c");
  EXPECT_EQ(g.outputs_of("a"), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(g.inputs_of("c"), (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(g.has_filter("b"));
  EXPECT_FALSE(g.has_filter("z"));
}

TEST(LocalSocketTest, TransfersWithHandoffCost) {
  sim::Simulation s;
  net::Cluster cluster(&s, 1);
  auto [a, b] = LocalSocket::make_pair(&s, &cluster.node(0), "loc");
  SimTime delivered;
  s.spawn("rx", [&, b = std::move(b)]() mutable {
    auto m = b->recv();
    ASSERT_TRUE(m.has_value());
    delivered = s.now();
  });
  s.spawn("tx", [&, a = std::move(a)]() mutable {
    a->send(net::Message{.bytes = 1024});
  });
  s.run();
  EXPECT_EQ(delivered, LocalSocket::kHandoffCost);
}

}  // namespace
}  // namespace sv::dc
