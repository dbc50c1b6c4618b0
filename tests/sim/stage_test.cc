// Stages (sim/stage.h): a stage fires exactly the events its process form
// would, surfaces its errors from run(), rejects process-only calls, and
// has its frame freed when the simulation is destroyed under it.
#include "sim/stage.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace sv::sim {
namespace {

using namespace sv::literals;

/// The objects a script shares with the process that drives it.
struct World {
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

}  // namespace
}  // namespace sv::sim
