// Zero-allocation hot path (DESIGN.md §12): once warmed up, blocking,
// waking and moving frames allocate nothing. This binary replaces the
// global operator new to count every call, runs each operation past its
// warm-up, and expects no allocation at all — by any process or event —
// across the measured operations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>

#include "datacutter/runtime.h"
#include "net/cluster.h"
#include "net/fabric.h"
#include "net/fault.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sockets/factory.h"
#include "sockets/mux.h"

namespace {
std::uint64_t allocations = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  ++allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) { return ::operator new(bytes); }
// Out of line: GCC 12 inlines a delete's free() into a new-expression's
// cleanup path, while operator new stays a call, and then reports the
// pair under -Wmismatched-new-delete (seen with ASan at -O2).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace sv {
namespace {

using namespace sv::literals;

constexpr int kWarmup = 100;
constexpr int kOps = 1'000;

/// The allocation count over a window a workload opens after its warm-up
/// and closes after its last measured operation. No process may finish
/// inside it: spawning and finishing are not operations measured here.
class Window {
 public:
  /// Call before operation `i`: opens the window at i == kWarmup.
  void before(int i) {
    if (i == kWarmup) start_ = allocations;
  }
  void close() {
    end_ = allocations;
    closed_ = true;
  }
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] std::uint64_t count() const { return end_ - start_; }
  [[nodiscard]] double per_op(int ops = kOps) const {
    return static_cast<double>(count()) / ops;
  }

 private:
  std::uint64_t start_ = 0;
  std::uint64_t end_ = 0;
  bool closed_ = false;
};

TEST(AllocFreeTest, Delay) {
  sim::Simulation s;
  Window w;
  s.spawn("p", [&] {
    for (int i = 0; i < kWarmup + kOps; ++i) {
      w.before(i);
      s.delay(1_us);
    }
    w.close();
  });
  s.run();
  EXPECT_EQ(w.count(), 0u) << w.per_op() << " allocations per delay";
}

TEST(AllocFreeTest, WaitQueueWaitAndNotify) {
  sim::Simulation s;
  sim::WaitQueue q(&s, "q");
  Window w;
  s.spawn("waiter", [&] {
    for (int i = 0; i < kWarmup + kOps; ++i) {
      w.before(i);
      q.wait();
    }
    w.close();
  });
  s.spawn("notifier", [&] {
    for (int i = 0; i < kWarmup + kOps; ++i) {
      s.delay(1_us);
      q.notify_one();
    }
    // Finish after the window closes: a finished process's stack goes to
    // the free list, which may grow.
    s.delay(1_us);
  });
  s.run();
  EXPECT_EQ(w.count(), 0u) << w.per_op() << " allocations per wait+notify";
}

/// A ping-pong over two channels of `capacity`: one op is a round trip.
Window channel_round_trips(std::size_t capacity) {
  sim::Simulation s;
  sim::Channel<int> ping(&s, capacity, "ping");
  sim::Channel<int> pong(&s, capacity, "pong");
  Window w;
  s.spawn("client", [&] {
    for (int i = 0; i < kWarmup + kOps; ++i) {
      w.before(i);
      ping.send(i);
      (void)pong.recv();
    }
    w.close();
    ping.close();
  });
  s.spawn("server", [&] {
    while (auto v = ping.recv()) pong.send(*v);
  });
  s.run();
  return w;
}

TEST(AllocFreeTest, UnboundedChannelRoundTrip) {
  const Window w = channel_round_trips(0);
  EXPECT_EQ(w.count(), 0u) << w.per_op() << " allocations per round trip";
}

TEST(AllocFreeTest, BoundedChannelRoundTrip) {
  const Window w = channel_round_trips(1);
  EXPECT_EQ(w.count(), 0u) << w.per_op() << " allocations per round trip";
}

TEST(AllocFreeTest, ContendedResourceUse) {
  // Four processes share two units, so half of all uses queue; three of
  // them keep contending until the fourth has closed the window.
  sim::Simulation s;
  sim::Resource r(&s, 2, "r");
  Window w;
  for (int p = 0; p < 4; ++p) {
    s.spawn("user", [&, p] {
      if (p > 0) {
        while (!w.closed()) r.use(1_us);
        return;
      }
      for (int i = 0; i < kWarmup + kOps; ++i) {
        w.before(i);
        r.use(1_us);
      }
      w.close();
    });
  }
  s.run();
  EXPECT_EQ(w.count(), 0u) << w.per_op(4 * kOps) << " allocations per use";
}

TEST(AllocFreeTest, SocketViaPipeMessage) {
  // 64 KiB on the SocketVIA profile crosses the pipe as 16 frames.
  constexpr int kMsgs = 200;
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  net::Pipe pipe(&s, &cluster.node(0), &cluster.node(1),
                 net::CalibrationProfile::socket_via(), "pipe");
  Window w;
  s.spawn("tx", [&] {
    for (int i = 0; i < kWarmup + kMsgs; ++i) {
      w.before(i);
      pipe.send(net::Message{.bytes = 64_KiB});
    }
    w.close();
    pipe.close();
  });
  s.spawn("rx", [&] {
    while (pipe.recv()) {
    }
  });
  s.run();
  EXPECT_EQ(s.obs().registry.sum_counters("fabric.frames{"),
            16u * (kWarmup + kMsgs));
  EXPECT_EQ(w.count(), 0u) << w.per_op(kMsgs) << " allocations per message";
}

TEST(AllocFreeTest, SocketViaPipeMessageOverLossyFatTree) {
  // The same stream from node 0 to node 15 of a k = 4 fat tree, with 1%
  // loss and up to 2 us of jitter: every frame walks four fabric hops, and
  // the fault path (retransmission, jitter) runs inside the window.
  constexpr int kMsgs = 200;
  sim::Simulation s;
  net::Cluster cluster(&s, 16, net::NodeConfig{},
                       net::TopologySpec::fat_tree(4));
  net::FaultPlan plan = net::FaultPlan::uniform_loss(0.01);
  plan.all_links.max_jitter = 2_us;
  cluster.install_faults(plan, /*seed=*/1);
  net::Pipe pipe(&s, &cluster.node(0), &cluster.node(15),
                 net::CalibrationProfile::socket_via(), "pipe");
  Window w;
  std::uint64_t retx_in_window = 0;
  s.spawn("tx", [&] {
    for (int i = 0; i < kWarmup + kMsgs; ++i) {
      w.before(i);
      if (i == kWarmup) retx_in_window = pipe.frames_retransmitted();
      pipe.send(net::Message{.bytes = 64_KiB});
    }
    w.close();
    retx_in_window = pipe.frames_retransmitted() - retx_in_window;
    pipe.close();
  });
  s.spawn("rx", [&] {
    while (pipe.recv()) {
    }
  });
  s.run();
  EXPECT_GT(retx_in_window, 0u);
  EXPECT_EQ(w.count(), 0u) << w.per_op(kMsgs) << " allocations per message";
}

TEST(AllocFreeTest, FastKernelTcpSocketMessage) {
  // Each 16 KiB message charges its two kernel-TCP copies to the ledger.
  constexpr int kMsgs = 200;
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kFast);
  Window w;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kKernelTcp);
    s.spawn("rx", [b = std::move(b)]() mutable {
      while (b->recv()) {
      }
    });
    for (int i = 0; i < kWarmup + kMsgs; ++i) {
      w.before(i);
      a->send(net::Message{.bytes = 16_KiB});
    }
    w.close();
    a->close_send();
  });
  s.run();
  EXPECT_EQ(s.obs().registry.counter_value("mem.copies"),
            2u * (kWarmup + kMsgs));
  EXPECT_EQ(w.count(), 0u) << w.per_op(kMsgs) << " allocations per message";
}

TEST(AllocFreeTest, FastSocketViaSendForWithADeadline) {
  // send_for runs the pipe's send task in place, so each message takes a
  // task frame, which comes from the frame pool once warm. Each message
  // lands before the next is sent: the window stays open and the deadline
  // schedules no timeout.
  constexpr int kMsgs = 200;
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kFast);
  Window w;
  int failed = 0;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
    s.spawn("rx", [b = std::move(b)]() mutable {
      while (b->recv()) {
      }
    });
    for (int i = 0; i < kWarmup + kMsgs; ++i) {
      w.before(i);
      if (!a->send_for(net::Message{.bytes = 16_KiB}, 1_ms).ok()) ++failed;
      s.delay(1_ms);
    }
    w.close();
    a->close_send();
  });
  s.run();
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(s.obs().registry.sum_counters("fabric.frames{"),
            4u * (kWarmup + kMsgs));
  EXPECT_EQ(w.count(), 0u) << w.per_op(kMsgs) << " allocations per message";
}

/// Receives every message on `sock` through its receive task; one op is
/// one message.
sim::Stage receive_all(sockets::SvSocket* sock, Window* w, int* received) {
  for (int i = 0;; ++i) {
    w->before(i);
    if (i == kWarmup + kOps) w->close();
    const Result<std::optional<net::Message>> r =
        co_await sock->recv_task(SimTime::zero());
    if (!r.value()) co_return;
    ++*received;
  }
}

TEST(AllocFreeTest, StageAwaitingAFastSocketReceive) {
  // Each receive takes two task frames (the socket's and its pipe's),
  // which come from the frame pool once warm. The sender writes 100
  // messages more than the window measures, so it is still running when
  // the window closes.
  constexpr int kMsgs = kWarmup + kOps + 100;
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster, sockets::Fidelity::kFast);
  auto [a, b] = factory.connect(0, 1, net::Transport::kSocketVia);
  Window w;
  int received = 0;
  s.start(receive_all(b.get(), &w, &received));
  s.spawn("tx", [&a = a] {
    for (int i = 0; i < kMsgs; ++i) a->send(net::Message{.bytes = 4_KiB});
    a->close_send();
  });
  s.run();
  ASSERT_TRUE(w.closed());
  EXPECT_EQ(received, kMsgs);
  EXPECT_EQ(w.count(), 0u) << w.per_op() << " allocations per message";
}

TEST(AllocFreeTest, SendMuxAggregateRoundTrip) {
  // One op queues 8 x 512 B on each of two lanes, which the sender ships
  // as one aggregate per lane, and gives both 100 us to land.
  sim::Simulation s;
  net::Cluster cluster(&s, 3);
  std::uint64_t delivered = 0;
  sockets::SendMux mux(
      &s, &cluster, /*node=*/0, sockets::SendMuxConfig{},
      [&](int, const sockets::MuxRecord&, SimTime) { ++delivered; });
  const std::uint64_t lanes[] = {mux.open_connection(1),
                                 mux.open_connection(2)};
  int rejected = 0;
  Window w;
  s.spawn("app", [&] {
    for (int i = 0; i < kWarmup + kOps; ++i) {
      w.before(i);
      for (const std::uint64_t conn : lanes) {
        for (int r = 0; r < 8; ++r) {
          if (!mux.submit(conn, 512)) ++rejected;
        }
      }
      s.delay(100_us);
    }
    w.close();
    mux.shutdown();
  });
  s.run();
  EXPECT_EQ(rejected, 0);
  EXPECT_EQ(delivered, 16u * (kWarmup + kOps));
  EXPECT_EQ(w.count(), 0u) << w.per_op() << " allocations per op";
}

TEST(AllocFreeTest, DataCutterBufferHop) {
  // A source streams 4 KiB buffers round-robin to a sink over fast
  // SocketVIA; one op is one buffer the sink reads. The source writes 100
  // buffers more than the window measures, so it is still blocked in
  // write() when the window closes.
  constexpr int kBuffers = kWarmup + kOps + 100;
  struct Source final : dc::Filter {
    void process(dc::FilterContext& ctx) override {
      for (int i = 0; i < kBuffers; ++i) {
        ctx.write(dc::DataBuffer{.bytes = 4_KiB,
                                 .tag = static_cast<std::uint64_t>(i)});
      }
    }
  };
  struct Sink final : dc::Filter {
    Sink(Window* w_in, int* misordered_in, int* received_in)
        : w(w_in), misordered(misordered_in), received(received_in) {}
    void process(dc::FilterContext& ctx) override {
      for (int i = 0;; ++i) {
        w->before(i);
        if (i == kWarmup + kOps) w->close();
        const std::optional<dc::DataBuffer> b = ctx.read();
        if (!b) return;
        ++*received;
        if (b->tag != static_cast<std::uint64_t>(i)) ++*misordered;
      }
    }
    Window* w;
    int* misordered;
    int* received;
  };
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  sockets::SocketFactory factory(&s, &cluster);
  Window w;
  int misordered = 0;
  int received = 0;
  dc::FilterGroup g;
  g.add_filter("src", [] { return std::make_unique<Source>(); }, {0});
  g.add_filter(
      "sink",
      [&] { return std::make_unique<Sink>(&w, &misordered, &received); },
      {1});
  g.add_stream("src", "sink", dc::SchedPolicy::kRoundRobin);
  dc::Runtime rt(&s, &cluster, &factory, std::move(g));
  rt.start();
  rt.submit(dc::Uow{.id = 1});
  rt.close_input();
  s.run();
  ASSERT_TRUE(w.closed());
  EXPECT_EQ(received, kBuffers);
  EXPECT_EQ(misordered, 0);
  EXPECT_EQ(w.count(), 0u) << w.per_op() << " allocations per buffer";
}

}  // namespace
}  // namespace sv
