#include "sim/sync.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

namespace sv::sim {
namespace {

using namespace sv::literals;

TEST(WaitQueueTest, NotifyOneWakesFifo) {
  Simulation s;
  WaitQueue q(&s);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    s.spawn(std::string("w").append(std::to_string(i)), [&, i] {
      q.wait();
      order.push_back(i);
    });
  }
  s.spawn("notifier", [&] {
    s.delay(10_us);
    q.notify_one();
    s.delay(10_us);
    q.notify_one();
    s.delay(10_us);
    q.notify_one();
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(WaitQueueTest, NotifyAllWakesEveryone) {
  Simulation s;
  WaitQueue q(&s);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    s.spawn(std::string("w").append(std::to_string(i)), [&] {
      q.wait();
      ++woken;
    });
  }
  s.spawn("notifier", [&] {
    s.delay(1_us);
    q.notify_all();
  });
  s.run();
  EXPECT_EQ(woken, 5);
}

TEST(WaitQueueTest, NotifyOneOnEmptyReturnsFalse) {
  Simulation s;
  WaitQueue q(&s);
  s.spawn("p", [&] { EXPECT_FALSE(q.notify_one()); });
  s.run();
}

TEST(WaitQueueTest, WaitForTimesOut) {
  Simulation s;
  WaitQueue q(&s);
  bool notified = true;
  SimTime when;
  s.spawn("p", [&] {
    notified = q.wait_until(s.now() + 50_us);
    when = s.now();
  });
  s.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(when, 50_us);
  EXPECT_EQ(q.waiter_count(), 0u);
}

TEST(WaitQueueTest, WaitForNotifiedBeforeTimeout) {
  Simulation s;
  WaitQueue q(&s);
  bool notified = false;
  SimTime when;
  s.spawn("p", [&] {
    notified = q.wait_until(s.now() + 50_us);
    when = s.now();
  });
  s.spawn("n", [&] {
    s.delay(20_us);
    q.notify_one();
  });
  s.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(when, 20_us);
}

TEST(WaitQueueTest, WaitUntilReachedDeadlineReturnsAtOnce) {
  // Every blocking body re-waits with the same deadline after a wake-up;
  // once it has passed, the wait must report a timeout without blocking
  // or queueing a waiter.
  Simulation s;
  WaitQueue q(&s);
  bool notified = true;
  SimTime when = SimTime::max();
  s.spawn("p", [&] {
    s.delay(30_us);
    notified = q.wait_until(20_us);
    when = s.now();
    EXPECT_EQ(q.waiter_count(), 0u);
  });
  s.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(when, 30_us);
}

TEST(WaitQueueTest, TimedOutEntrySkippedByLaterNotify) {
  Simulation s;
  WaitQueue q(&s);
  std::vector<std::string> woken;
  s.spawn("timed", [&] {
    if (!q.wait_until(s.now() + 10_us)) woken.push_back("timed-timeout");
  });
  s.spawn("patient", [&] {
    q.wait();
    woken.push_back("patient");
  });
  s.spawn("n", [&] {
    s.delay(20_us);
    q.notify_one();  // must reach "patient", not the timed-out entry
  });
  s.run();
  EXPECT_EQ(woken,
            (std::vector<std::string>{"timed-timeout", "patient"}));
}

TEST(ChannelTest, SendRecvTransfersValue) {
  Simulation s;
  Channel<int> ch(&s, 1);
  std::optional<int> got;
  s.spawn("rx", [&] { got = ch.recv(); });
  s.spawn("tx", [&] {
    s.delay(5_us);
    ch.send(99);
  });
  s.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 99);
}

TEST(ChannelTest, BoundedChannelBlocksSender) {
  Simulation s;
  Channel<int> ch(&s, 2);
  std::vector<SimTime> send_times;
  s.spawn("tx", [&] {
    for (int i = 0; i < 4; ++i) {
      ch.send(i);
      send_times.push_back(s.now());
    }
  });
  s.spawn("rx", [&] {
    s.delay(100_us);
    for (int i = 0; i < 4; ++i) {
      auto v = ch.recv();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);  // FIFO order
      s.delay(10_us);
    }
  });
  s.run();
  ASSERT_EQ(send_times.size(), 4u);
  EXPECT_EQ(send_times[0], SimTime::zero());
  EXPECT_EQ(send_times[1], SimTime::zero());
  EXPECT_EQ(send_times[2], 100_us);  // unblocked by first recv
  EXPECT_EQ(send_times[3], 110_us);
}

TEST(ChannelTest, UnboundedNeverBlocksSender) {
  Simulation s;
  Channel<int> ch(&s, 0);  // capacity 0 == unbounded
  s.spawn("tx", [&] {
    for (int i = 0; i < 1000; ++i) ch.send(i);
    EXPECT_EQ(s.now(), SimTime::zero());  // never blocked
  });
  s.run();
  EXPECT_EQ(ch.size(), 1000u);
}

TEST(ChannelTest, CloseDrainsThenNullopt) {
  Simulation s;
  Channel<int> ch(&s, 0);
  std::vector<int> got;
  bool saw_end = false;
  s.spawn("rx", [&] {
    while (auto v = ch.recv()) got.push_back(*v);
    saw_end = true;
  });
  s.spawn("tx", [&] {
    ch.send(1);
    ch.send(2);
    s.delay(1_us);
    ch.close();
  });
  s.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_TRUE(saw_end);
}

TEST(ChannelTest, SendAfterCloseThrows) {
  Simulation s;
  Channel<int> ch(&s, 0);
  s.spawn("p", [&] {
    ch.close();
    EXPECT_THROW(ch.send(1), std::logic_error);
    EXPECT_FALSE(ch.try_send(1));
  });
  s.run();
}

TEST(ChannelTest, TryRecvNonBlocking) {
  Simulation s;
  Channel<int> ch(&s, 0);
  s.spawn("p", [&] {
    EXPECT_FALSE(ch.try_recv().has_value());
    ch.send(5);
    auto v = ch.try_recv();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 5);
  });
  s.run();
}

TEST(ChannelTest, MultipleConsumersEachGetOneItem) {
  Simulation s;
  Channel<int> ch(&s, 0);
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    s.spawn("rx" + std::to_string(i), [&] {
      auto v = ch.recv();
      if (v) got.push_back(*v);
    });
  }
  s.spawn("tx", [&] {
    s.delay(1_us);
    ch.send(10);
    ch.send(20);
    ch.send(30);
  });
  s.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0] + got[1] + got[2], 60);
}

TEST(ChannelTest, MoveOnlyPayload) {
  Simulation s;
  Channel<std::unique_ptr<int>> ch(&s, 0);
  int result = 0;
  s.spawn("rx", [&] {
    auto v = ch.recv();
    ASSERT_TRUE(v.has_value());
    result = **v;
  });
  s.spawn("tx", [&] { ch.send(std::make_unique<int>(77)); });
  s.run();
  EXPECT_EQ(result, 77);
}

}  // namespace
}  // namespace sv::sim
