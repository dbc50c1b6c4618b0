// Zero-allocation hot path (DESIGN.md §12): once warmed up, blocking,
// waking and moving frames allocate nothing. This binary replaces the
// global operator new to count every call, runs each operation past its
// warm-up, and expects no allocation at all — by any process or event —
// across the measured operations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/cluster.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sockets/factory.h"

namespace {
std::uint64_t allocations = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  ++allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) { return ::operator new(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

}  // namespace
}  // namespace sv
