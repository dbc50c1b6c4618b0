// Stages (sim/stage.h): a stage fires exactly the events its process form
// would, surfaces its errors from run(), rejects process-only calls, and
// has its frame freed when the simulation is destroyed under it. Tasks
// (sim/task.h) keep one body for both forms: a process running a task in
// place and a stage awaiting it fire the same events, and errors and
// teardown cross the task frame.
#include "sim/stage.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "net/cluster.h"
#include "net/fabric.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace sv::sim {
namespace {

using namespace sv::literals;

/// The objects a script shares with the process that drives it.
struct World {
  World() = default;
  explicit World(QueueKind kind) : s(kind) {}

  Simulation s;
  Resource r{&s, 1, "r"};
  Channel<int> ch{&s, 0, "ch"};
  WaitQueue q{&s, "q"};
  std::vector<std::string> log;

  void note(const std::string& what) {
    log.push_back(std::to_string(s.now().ns()) + " " + what);
  }
};

/// Uses `r` first (the script queues behind it), then queues behind the
/// script; feeds `ch` before and after the script waits in it, closes it,
/// and finally notify_all()s `q`, where a peer and the script wait.
void feeder(World* w) {
  w->r.use(5_us);
  w->ch.send(1);
  w->ch.send(2);
  w->r.use(1_us);
  w->s.delay(6_us);
  w->ch.send(3);
  w->s.delay(5_us);
  w->ch.close();
  w->s.delay(10_us);
  w->q.notify_all();
  w->note("feeder done");
}

void script_process(World* w) {
  w->note("start");
  w->s.delay(SimTime::zero());
  w->note("slept 0");
  w->r.acquire();
  w->note("holds r");
  w->s.delay(3_us);
  w->r.release();
  while (auto v = w->ch.recv()) w->note("got " + std::to_string(*v));
  w->note("closed");
  w->r.acquire();  // free by now: taken at once, with no event
  w->s.delay(1_us);
  w->r.release();
  w->q.wait();
  w->note("woken");
}

Stage script_stage(World* w) {
  w->note("start");
  co_await w->s.sleep(SimTime::zero());
  w->note("slept 0");
  co_await w->r.acquire_stage();
  w->note("holds r");
  co_await w->s.sleep(3_us);
  w->r.release();
  while (true) {
    while (w->ch.empty() && !w->ch.closed()) co_await w->ch.readable();
    const std::optional<int> v = w->ch.try_recv();
    if (!v) break;
    w->note("got " + std::to_string(*v));
  }
  w->note("closed");
  co_await w->r.acquire_stage();
  co_await w->s.sleep(1_us);
  w->r.release();
  co_await w->q.wait_stage();
  w->note("woken");
}

struct Outcome {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  SimTime end{};
  std::vector<std::string> log;
};

Outcome run_script(bool as_stage) {
  World w;
  w.s.spawn("feeder", [&w] { feeder(&w); });
  w.s.spawn("peer", [&w] {
    w.q.wait();
    w.note("peer woken");
  });
  if (as_stage) {
    w.s.start(script_stage(&w));
  } else {
    w.s.spawn("script", [&w] { script_process(&w); });
  }
  w.s.run();
  return {w.s.events_fired(), w.s.engine().trace_digest(), w.s.now(),
          w.log};
}

TEST(StageTest, StageFiresTheEventsOfItsProcessForm) {
  const Outcome proc = run_script(/*as_stage=*/false);
  const Outcome stage = run_script(/*as_stage=*/true);
  EXPECT_EQ(stage.events, proc.events);
  EXPECT_EQ(stage.digest, proc.digest);
  EXPECT_EQ(stage.end, proc.end);
  EXPECT_EQ(stage.log, proc.log);
  // The script really crossed every path: queued on r, read all three
  // items, saw the close, and was woken after the peer.
  const std::vector<std::string> expected = {
      "0 start",    "0 slept 0",        "5000 holds r", "8000 got 1",
      "8000 got 2", "15000 got 3",      "20000 closed", "30000 feeder done",
      "30000 peer woken", "30000 woken"};
  EXPECT_EQ(stage.log, expected);
}

Stage thrower(Simulation* s) {
  co_await s->sleep(1_us);
  throw std::runtime_error("stage failed");
}

TEST(StageTest, StageExceptionSurfacesFromRun) {
  Simulation s;
  s.start(thrower(&s));
  try {
    s.run();
    FAIL() << "run() returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "stage failed");
  }
  EXPECT_EQ(s.now(), 1_us);
}

Stage misuse(Simulation* s, Resource* r, WaitQueue* q, Channel<int>* full,
             std::vector<std::string>* threw) {
  co_await s->sleep(SimTime::zero());
  try {
    s->delay(1_us);
  } catch (const std::logic_error&) {
    threw->push_back("delay");
  }
  try {
    r->acquire();
  } catch (const std::logic_error&) {
    threw->push_back("acquire");
  }
  try {
    q->wait();
  } catch (const std::logic_error&) {
    threw->push_back("wait");
  }
  try {
    full->send(2);
  } catch (const std::logic_error&) {
    threw->push_back("send");
  }
}

TEST(StageTest, ProcessCallsFromAStageThrowLogicError) {
  // current() is null while a stage runs, so every call that would block
  // the calling process throws, as it does from an event handler.
  Simulation s;
  Resource r(&s, 1, "r");
  WaitQueue q(&s, "q");
  Channel<int> full(&s, 1, "full");
  ASSERT_TRUE(full.try_send(1));
  std::vector<std::string> threw;
  s.start(misuse(&s, &r, &q, &full, &threw));
  s.run();
  EXPECT_EQ(threw,
            (std::vector<std::string>{"delay", "acquire", "wait", "send"}));
  EXPECT_EQ(r.in_use(), 0);
  EXPECT_EQ(q.waiter_count(), 0u);
  EXPECT_EQ(full.size(), 1u);
}

Stage take_unit(Resource* r, std::shared_ptr<int> token) {
  co_await r->acquire_stage();
  ++*token;  // never reached: a process holds the unit for good
  r->release();
}

TEST(StageTest, DestroyedSimulationFreesWaitingStages) {
  // Each frame co-owns `token`, so the frames are gone once it expires;
  // under ASan, LeakSanitizer checks that nothing else of theirs leaks.
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  {
    Simulation s;
    Resource r(&s, 1, "r");
    WaitQueue never(&s, "never");
    s.spawn("holder", [&] {
      r.acquire();
      never.wait();
    });
    for (int i = 0; i < 3; ++i) s.start(take_unit(&r, token));
    token.reset();
    s.run();
    EXPECT_EQ(r.queue_length(), 3u);
    EXPECT_EQ(watch.use_count(), 3);
  }
  EXPECT_TRUE(watch.expired());
}

constexpr QueueKind kQueueKinds[] = {QueueKind::kTimingWheel,
                                     QueueKind::kReferenceHeap};

/// Waits on `q` until a deadline four ways: timed out, notified before the
/// deadline, with no deadline, and with a deadline already reached.
void until_process(World* w) {
  w->note(w->q.wait_until(w->s.now() + 5_us) ? "notified" : "timed out");
  w->note(w->q.wait_until(w->s.now() + 50_us) ? "notified" : "timed out");
  w->note(w->q.wait_until(SimTime::max()) ? "notified" : "timed out");
  w->note(w->q.wait_until(w->s.now()) ? "notified" : "timed out");
}

Stage until_stage(World* w) {
  w->note(co_await w->q.wait_until_stage(w->s.now() + 5_us) ? "notified"
                                                            : "timed out");
  w->note(co_await w->q.wait_until_stage(w->s.now() + 50_us) ? "notified"
                                                             : "timed out");
  w->note(co_await w->q.wait_until_stage(SimTime::max()) ? "notified"
                                                         : "timed out");
  w->note(co_await w->q.wait_until_stage(w->s.now()) ? "notified"
                                                     : "timed out");
}

TEST(StageTest, StageWaitUntilFiresTheEventsOfItsProcessForm) {
  const auto run = [](QueueKind kind, bool as_stage) {
    World w(kind);
    w.s.spawn("notifier", [&w] {
      w.s.delay(20_us);
      w.q.notify_all();
      w.s.delay(20_us);
      w.q.notify_all();
    });
    if (as_stage) {
      w.s.start(until_stage(&w));
    } else {
      w.s.spawn("script", [&w] { until_process(&w); });
    }
    w.s.run();
    return Outcome{w.s.events_fired(), w.s.engine().trace_digest(), w.s.now(),
                   w.log};
  };
  for (const QueueKind kind : kQueueKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    const Outcome proc = run(kind, /*as_stage=*/false);
    const Outcome stage = run(kind, /*as_stage=*/true);
    EXPECT_EQ(stage.events, proc.events);
    EXPECT_EQ(stage.digest, proc.digest);
    EXPECT_EQ(stage.end, proc.end);
    const std::vector<std::string> expected = {
        "5000 timed out", "20000 notified", "40000 notified",
        "40000 timed out"};
    EXPECT_EQ(proc.log, expected);
    EXPECT_EQ(stage.log, expected);
  }
}

// ---- Tasks ----

/// An 8 KiB window that a 24 KiB message in 4 KiB frames closes.
net::CalibrationProfile small_window() {
  net::CalibrationProfile p = net::CalibrationProfile::socket_via();
  p.window_bytes = 8 * 1024;
  p.pipeline_frame_bytes = 4 * 1024;
  return p;
}

/// The objects a send script shares with the processes around it.
struct SendWorld {
  explicit SendWorld(QueueKind kind) : s(kind) {}

  void note(const std::string& what) {
    log.push_back(std::to_string(s.now().ns()) + " " + what);
  }

  Simulation s;
  net::Cluster cluster{&s, 2};
  net::Pipe pipe{&s, &cluster.node(0), &cluster.node(1), small_window(),
                 "pipe"};
  std::vector<std::string> log;
};


std::string sent_note(std::uint64_t i, const Result<void>& r) {
  return "sent " + std::to_string(i) + (r.ok() ? "" : " timed out");
}

/// Sends three 24 KiB messages, the second with a deadline it meets.
void send_process(SendWorld* w) {
  for (std::uint64_t i = 0; i < 3; ++i) {
    const Result<void> r = w->pipe.send_for(
        net::Message{.bytes = 24_KiB, .tag = i}, i == 1 ? 1_s : 0_us);
    w->note(sent_note(i, r));
  }
  w->pipe.close();
}

Stage send_stage(SendWorld* w) {
  for (std::uint64_t i = 0; i < 3; ++i) {
    net::Message m{.bytes = 24_KiB, .tag = i};
    const Result<void> r =
        co_await w->pipe.send_task(std::move(m), i == 1 ? 1_s : 0_us);
    w->note(sent_note(i, r));
  }
  w->pipe.close();
}

Outcome run_send_script(QueueKind kind, bool as_stage) {
  SendWorld w(kind);
  // Holds the sender's tx_host when the script starts.
  w.s.spawn("hog", [&w] { w.cluster.node(0).tx_host().use(7_us); });
  w.s.spawn("receiver", [&w] {
    while (const std::optional<net::Message> m = w.pipe.recv()) {
      w.note("got " + std::to_string(m->tag));
    }
  });
  if (as_stage) {
    w.s.start(send_stage(&w));
  } else {
    w.s.spawn("script", [&w] { send_process(&w); });
  }
  w.s.run();
  return {w.s.events_fired(), w.s.engine().trace_digest(), w.s.now(),
          w.log};
}

TEST(TaskTest, AwaitedSendFiresTheEventsOfSendFor) {
  for (const QueueKind kind : kQueueKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    const Outcome proc = run_send_script(kind, /*as_stage=*/false);
    const Outcome stage = run_send_script(kind, /*as_stage=*/true);
    EXPECT_EQ(stage.events, proc.events);
    EXPECT_EQ(stage.digest, proc.digest);
    EXPECT_EQ(stage.end, proc.end);
    EXPECT_EQ(stage.log, proc.log);
    // The first send queued behind the hog's 7 us on tx_host, and each
    // waited for window credit (with the window open, all three return by
    // 26 us); the messages arrived in order.
    const std::vector<std::string> expected = {
        "185062 sent 0", "274518 got 0", "443080 sent 1",
        "532536 got 1",  "701098 sent 2", "790554 got 2"};
    EXPECT_EQ(stage.log, expected);
  }
}

/// A pipe into a node whose receive path is held for good: the window
/// fills and never reopens.
struct StalledPipe {
  explicit StalledPipe(QueueKind kind) : s(kind) {
    s.spawn("holder", [this] {
      cluster.node(1).rx_proto().acquire();
      never.wait();
    });
  }

  Simulation s;
  net::Cluster cluster{&s, 2};
  net::Pipe pipe{&s, &cluster.node(0), &cluster.node(1), small_window(),
                 "pipe"};
  WaitQueue never{&s, "never"};
};

Stage send_into(net::Pipe* pipe, SimTime timeout, Result<void>* out) {
  net::Message m{.bytes = 24_KiB};
  *out = co_await pipe->send_task(std::move(m), timeout);
}

TEST(TaskTest, SendWhoseWindowNeverReopensTimesOutInBothForms) {
  for (const QueueKind kind : kQueueKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    Outcome outcomes[2];
    for (const bool as_stage : {false, true}) {
      StalledPipe w(kind);
      Result<void> r;
      if (as_stage) {
        w.s.start(send_into(&w.pipe, 100_us, &r));
      } else {
        w.s.spawn("sender", [&] {
          r = w.pipe.send_for(net::Message{.bytes = 24_KiB}, 100_us);
        });
      }
      w.s.run();
      ASSERT_TRUE(r.timed_out());
      EXPECT_EQ(w.s.now(), 100_us);
      outcomes[as_stage ? 1 : 0] = {w.s.events_fired(),
                                    w.s.engine().trace_digest(), w.s.now(),
                                    {}};
    }
    EXPECT_EQ(outcomes[1].events, outcomes[0].events);
    EXPECT_EQ(outcomes[1].digest, outcomes[0].digest);
  }
}

TEST(TaskTest, ErrorInABodySurfacesFromRunAndFromSendFor) {
  const std::size_t frames = task_frames_in_use();
  {
    // Awaited by a stage: the error crosses the stage and leaves run().
    Simulation s;
    net::Cluster cluster(&s, 2);
    net::Pipe pipe(&s, &cluster.node(0), &cluster.node(1), small_window(),
                   "pipe");
    pipe.close();
    Result<void> r;
    s.start(send_into(&pipe, SimTime::zero(), &r));
    EXPECT_THROW(s.run(), std::logic_error);
    EXPECT_EQ(task_frames_in_use(), frames);
  }
  {
    // Run in place: send_for throws it in the process.
    Simulation s;
    net::Cluster cluster(&s, 2);
    net::Pipe pipe(&s, &cluster.node(0), &cluster.node(1), small_window(),
                   "pipe");
    pipe.close();
    std::string caught;
    s.spawn("sender", [&] {
      try {
        (void)pipe.send_for(net::Message{.bytes = 1}, SimTime::zero());
      } catch (const std::logic_error& e) {
        caught = e.what();
      }
    });
    s.run();
    EXPECT_NE(caught.find("send after close"), std::string::npos) << caught;
    EXPECT_EQ(task_frames_in_use(), frames);
  }
}

Stage send_for_from_stage(Simulation* s, net::Pipe* pipe, bool* threw) {
  co_await s->sleep(SimTime::zero());
  try {
    (void)pipe->send_for(net::Message{.bytes = 1}, SimTime::zero());
  } catch (const std::logic_error&) {
    *threw = true;
  }
}

TEST(TaskTest, RunInPlaceOutsideAProcessThrowsLogicError) {
  Simulation s;
  net::Cluster cluster(&s, 2);
  net::Pipe pipe(&s, &cluster.node(0), &cluster.node(1), small_window(),
                 "pipe");
  EXPECT_THROW((void)pipe.send_task(net::Message{.bytes = 1}, SimTime::zero())
                   .run_in_place(),
               std::logic_error);
  bool threw = false;
  s.start(send_for_from_stage(&s, &pipe, &threw));
  s.run();
  EXPECT_TRUE(threw);
  // Neither body ran: nothing was sent.
  EXPECT_EQ(pipe.messages_sent(), 0u);
}

Stage send_holding(net::Pipe* pipe, std::shared_ptr<int> token) {
  net::Message m{.bytes = 24_KiB};
  (void)co_await pipe->send_task(std::move(m), SimTime::zero());
  ++*token;  // never reached: the window never reopens
}

TEST(TaskTest, DestroyedSimulationUnwindsTasksAndFreesTheirFrames) {
  const std::size_t frames = task_frames_in_use();
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  bool killed = false;
  {
    StalledPipe w(QueueKind::kTimingWheel);
    w.s.spawn("sender", [&] {
      try {
        w.pipe.send(net::Message{.bytes = 24_KiB});
      } catch (const ProcessKilled&) {
        killed = true;
        throw;
      }
    });
    w.s.start(send_holding(&w.pipe, token));
    token.reset();
    w.s.run();
    // The process blocks inside one send body and the stage inside the
    // other, both on the closed window.
    EXPECT_EQ(task_frames_in_use(), frames + 2);
    EXPECT_EQ(w.s.live_process_count(), 2u);
    EXPECT_EQ(watch.use_count(), 1);
  }
  EXPECT_TRUE(killed);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(task_frames_in_use(), frames);
}

/// Holds `r` for `hold`, twice over through a nested task.
Task<std::int64_t> hold(Simulation* s, Resource* r, SimTime hold) {
  co_await r->acquire_stage();
  co_await s->sleep(hold);
  r->release();
  co_return s->now().ns();
}

Task<std::int64_t> hold_twice(Simulation* s, Resource* r) {
  const std::int64_t first = co_await hold(s, r, 2_us);
  const std::int64_t second = co_await hold(s, r, 3_us);
  co_return first + second;
}

Stage await_hold_twice(World* w) {
  w->note("returned " + std::to_string(co_await hold_twice(&w->s, &w->r)));
}

TEST(TaskTest, TaskAwaitingATaskFiresTheSameEventsInBothForms) {
  for (const QueueKind kind : kQueueKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    Outcome outcomes[2];
    for (const bool as_stage : {false, true}) {
      World w(kind);
      w.s.spawn("rival", [&w] {
        w.r.use(1_us);
        w.s.delay(1_us);
        w.r.use(4_us);
      });
      if (as_stage) {
        w.s.start(await_hold_twice(&w));
      } else {
        w.s.spawn("script", [&w] {
          w.note("returned " +
                 std::to_string(hold_twice(&w.s, &w.r).run_in_place()));
        });
      }
      w.s.run();
      outcomes[as_stage ? 1 : 0] = {w.s.events_fired(),
                                    w.s.engine().trace_digest(), w.s.now(),
                                    w.log};
    }
    EXPECT_EQ(outcomes[1].events, outcomes[0].events);
    EXPECT_EQ(outcomes[1].digest, outcomes[0].digest);
    EXPECT_EQ(outcomes[1].end, outcomes[0].end);
    EXPECT_EQ(outcomes[1].log, outcomes[0].log);
    // Queued behind the rival's first use (0-1 us) and held 1-3 us, then
    // queued behind its second (3-7 us) and held 7-10 us.
    EXPECT_EQ(outcomes[1].log,
              (std::vector<std::string>{"10000 returned 13000"}));
  }
}

}  // namespace
}  // namespace sv::sim
