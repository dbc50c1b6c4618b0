#include "sim/resource.h"

#include <gtest/gtest.h>

#include <vector>

namespace sv::sim {
namespace {

using namespace sv::literals;

TEST(ResourceTest, SingleServerSerializes) {
  Simulation s;
  Resource r(&s, 1);
  std::vector<SimTime> start_times;
  for (int i = 0; i < 3; ++i) {
    s.spawn(std::string("p").append(std::to_string(i)), [&] {
      r.acquire();
      start_times.push_back(s.now());
      s.delay(10_us);
      r.release();
    });
  }
  s.run();
  ASSERT_EQ(start_times.size(), 3u);
  EXPECT_EQ(start_times[0], SimTime::zero());
  EXPECT_EQ(start_times[1], 10_us);
  EXPECT_EQ(start_times[2], 20_us);
}

TEST(ResourceTest, MultiServerParallelism) {
  Simulation s;
  Resource r(&s, 2);  // e.g. the dual-CPU nodes in the paper's cluster
  std::vector<SimTime> done_times;
  for (int i = 0; i < 4; ++i) {
    s.spawn(std::string("p").append(std::to_string(i)), [&] {
      r.use(10_us);
      done_times.push_back(s.now());
    });
  }
  s.run();
  ASSERT_EQ(done_times.size(), 4u);
  EXPECT_EQ(done_times[0], 10_us);
  EXPECT_EQ(done_times[1], 10_us);
  EXPECT_EQ(done_times[2], 20_us);
  EXPECT_EQ(done_times[3], 20_us);
}

TEST(ResourceTest, FifoHandoffOrder) {
  Simulation s;
  Resource r(&s, 1);
  std::vector<int> order;
  s.spawn("holder", [&] {
    r.acquire();
    s.delay(100_us);
    r.release();
  });
  for (int i = 0; i < 5; ++i) {
    s.spawn(std::string("w").append(std::to_string(i)), [&, i] {
      s.delay(SimTime::microseconds(i + 1));  // arrive in order 0..4
      r.acquire();
      order.push_back(i);
      s.delay(1_us);
      r.release();
    });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ResourceTest, DirectHandoffPreventsBargeIn) {
  // A unit released while someone waits must go to the waiter even if
  // another process tries to acquire at the same timestamp.
  Simulation s;
  Resource r(&s, 1);
  std::vector<std::string> order;
  s.spawn("holder", [&] {
    r.acquire();
    s.delay(10_us);
    r.release();
  });
  s.spawn("waiter", [&] {
    s.delay(1_us);
    r.acquire();
    order.push_back("waiter");
    r.release();
  });
  s.spawn("barger", [&] {
    s.delay(10_us);  // arrives exactly when holder releases
    r.acquire();
    order.push_back("barger");
    r.release();
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "waiter");
}

TEST(ResourceTest, TryAcquire) {
  Simulation s;
  Resource r(&s, 1);
  s.spawn("p", [&] {
    EXPECT_TRUE(r.try_acquire());
    EXPECT_FALSE(r.try_acquire());
    r.release();
    EXPECT_TRUE(r.try_acquire());
    r.release();
  });
  s.run();
}

TEST(ResourceTest, ReleaseWithoutHoldThrows) {
  Simulation s;
  Resource r(&s, 1);
  s.spawn("p", [&] { EXPECT_THROW(r.release(), std::logic_error); });
  s.run();
}

TEST(ResourceTest, InvalidCapacityThrows) {
  Simulation s;
  EXPECT_THROW(Resource(&s, 0), std::invalid_argument);
  EXPECT_THROW(Resource(&s, -2), std::invalid_argument);
}

TEST(ResourceTest, CountsReflectState) {
  Simulation s;
  Resource r(&s, 3);
  s.spawn("p", [&] {
    EXPECT_EQ(r.available(), 3);
    r.acquire();
    r.acquire();
    EXPECT_EQ(r.in_use(), 2);
    EXPECT_EQ(r.available(), 1);
    r.release();
    r.release();
    EXPECT_EQ(r.in_use(), 0);
  });
  s.run();
}

TEST(ResourceTest, UtilizationAccounting) {
  Simulation s;
  Resource r(&s, 1);
  s.spawn("p", [&] {
    r.use(50_us);   // busy 50us
    s.delay(50_us); // idle 50us
  });
  s.run();
  EXPECT_EQ(r.busy_ns(), 50'000);
}

}  // namespace
}  // namespace sv::sim
