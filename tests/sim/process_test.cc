#include "sim/simulation.h"

#include <sys/mman.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace sv::sim {
namespace {

using namespace sv::literals;

TEST(ProcessTest, DelayAdvancesSimulatedTime) {
  Simulation s;
  SimTime observed = SimTime::zero();
  s.spawn("p", [&] {
    s.delay(10_us);
    observed = s.now();
  });
  s.run();
  EXPECT_EQ(observed, 10_us);
  EXPECT_EQ(s.now(), 10_us);
}

TEST(ProcessTest, SequentialDelaysAccumulate) {
  Simulation s;
  std::vector<SimTime> marks;
  s.spawn("p", [&] {
    for (int i = 0; i < 3; ++i) {
      s.delay(5_us);
      marks.push_back(s.now());
    }
  });
  s.run();
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_EQ(marks[0], 5_us);
  EXPECT_EQ(marks[1], 10_us);
  EXPECT_EQ(marks[2], 15_us);
}

TEST(ProcessTest, ProcessesInterleaveDeterministically) {
  Simulation s;
  std::vector<std::string> order;
  s.spawn("a", [&] {
    s.delay(10_us);
    order.push_back("a@10");
    s.delay(20_us);
    order.push_back("a@30");
  });
  s.spawn("b", [&] {
    s.delay(15_us);
    order.push_back("b@15");
    s.delay(5_us);
    order.push_back("b@20");
  });
  s.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"a@10", "b@15", "b@20", "a@30"}));
}

TEST(ProcessTest, SameTimeResumptionFollowsScheduleOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.spawn("p" + std::to_string(i), [&s, &order, i] {
      s.delay(10_us);
      order.push_back(i);
    });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ProcessTest, SpawnFromInsideProcess) {
  Simulation s;
  std::vector<std::string> log;
  s.spawn("parent", [&] {
    s.delay(5_us);
    log.push_back("parent@5");
    s.spawn("child", [&] {
      s.delay(7_us);
      log.push_back("child@12");
    });
    s.delay(10_us);
    log.push_back("parent@15");
  });
  s.run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent@5", "child@12",
                                           "parent@15"}));
}

TEST(ProcessTest, BlockAndWake) {
  Simulation s;
  Process* sleeper = nullptr;
  SimTime woke_at = SimTime::zero();
  sleeper = &s.spawn("sleeper", [&] {
    s.block_current("test-block");
    woke_at = s.now();
  });
  s.spawn("waker", [&] {
    s.delay(42_us);
    s.wake(*sleeper);
  });
  s.run();
  EXPECT_EQ(woke_at, 42_us);
  EXPECT_TRUE(sleeper->finished());
}

TEST(ProcessTest, DoubleWakeIsHarmless) {
  Simulation s;
  Process* sleeper = nullptr;
  int wakes = 0;
  sleeper = &s.spawn("sleeper", [&] {
    s.block_current("x");
    ++wakes;
    s.delay(100_us);  // still blocked here when the stale wake would land
  });
  s.spawn("waker", [&] {
    s.delay(10_us);
    s.wake(*sleeper);
    s.wake(*sleeper);  // second wake must be a no-op
  });
  s.run();
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(s.now(), 110_us);
}

TEST(ProcessTest, ExceptionInProcessPropagatesToRun) {
  Simulation s;
  s.spawn("bad", [&] {
    s.delay(1_us);
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(ProcessTest, DestructionUnwindsBlockedProcesses) {
  // A simulation destroyed while processes are blocked must unwind every
  // process's stack without hanging (ProcessKilled unwind).
  bool cleanup_ran = false;
  {
    Simulation s;
    s.spawn("stuck", [&] {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } g{&cleanup_ran};
      s.block_current("forever");
    });
    s.run();
    EXPECT_EQ(s.live_process_count(), 1u);
  }
  EXPECT_TRUE(cleanup_ran);
}

TEST(ProcessTest, DestructionUnwindsNeverStartedProcesses) {
  // Spawned but run() never called: destructor must still not hang.
  Simulation s;
  s.spawn("never-started", [&] { s.delay(1_s); });
}

TEST(ProcessTest, BlockedProcessNamesDiagnostic) {
  Simulation s;
  s.spawn("waiter", [&] { s.block_current("waiting-for-godot"); });
  s.run();
  const auto names = s.blocked_process_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find("waiter"), std::string::npos);
  EXPECT_NE(names[0].find("waiting-for-godot"), std::string::npos);
}

TEST(ProcessTest, DelayOutsideProcessThrows) {
  Simulation s;
  EXPECT_THROW(s.delay(1_us), std::logic_error);
  EXPECT_THROW(s.block_current("x"), std::logic_error);
}

TEST(ProcessTest, NegativeDelayThrows) {
  Simulation s;
  s.spawn("p", [&] {
    EXPECT_THROW(s.delay(SimTime(-1)), std::invalid_argument);
  });
  s.run();
}

TEST(ProcessTest, ZeroDelayYieldsButStaysAtSameTime) {
  Simulation s;
  std::vector<int> order;
  s.spawn("a", [&] {
    order.push_back(1);
    s.delay(SimTime::zero());
    order.push_back(3);
  });
  s.spawn("b", [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::zero());
}

TEST(ProcessTest, ManyProcessesScale) {
  Simulation s;
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    s.spawn("p" + std::to_string(i), [&s, &done, i] {
      s.delay(SimTime::microseconds(i % 17));
      ++done;
    });
  }
  s.run();
  EXPECT_EQ(done, 200);
}

TEST(ProcessTest, RunForAdvancesWindow) {
  Simulation s;
  int ticks = 0;
  s.spawn("ticker", [&] {
    for (int i = 0; i < 100; ++i) {
      s.delay(10_us);
      ++ticks;
    }
  });
  s.run_for(35_us);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(s.now(), 35_us);
  s.run_for(30_us);
  EXPECT_EQ(ticks, 6);
}

TEST(ProcessTest, ProcessCanRunANestedSimulation) {
  // The inner simulation's scheduler runs on the outer process's stack, so
  // its processes switch to and from that stack, not the thread's.
  Simulation outer;
  std::vector<std::string> log;
  outer.spawn("outer", [&] {
    outer.delay(5_us);
    Simulation inner;
    inner.spawn("inner", [&] {
      inner.delay(7_us);
      log.push_back("inner@" + std::to_string(inner.now().ns()));
    });
    inner.run();
    outer.delay(1_us);
    log.push_back("outer@" + std::to_string(outer.now().ns()));
  });
  outer.run();
  EXPECT_EQ(log, (std::vector<std::string>{"inner@7000", "outer@6000"}));
}

/// True when two frame addresses taken near the tops of fiber stacks lie on
/// the same stack: frames on one stack sit far less than half a stack apart,
/// frames on two distinct mappings at least a whole stack apart.
bool same_stack(const void* a, const void* b) {
  const auto gap = static_cast<std::int64_t>(
      reinterpret_cast<std::uintptr_t>(a) -
      reinterpret_cast<std::uintptr_t>(b));
  return std::abs(gap) < static_cast<std::int64_t>(Process::kStackBytes / 2);
}

TEST(ProcessTest, FinishedProcessesRecycleTheirStacks) {
  // A finished process returns its mapping to a free list, and the next
  // process takes it instead of mapping a new stack, so 10,000 processes in
  // a row all run on the first one's stack. A decoy mapping of the same
  // size, held from the first cycle on, would take the address that an
  // unmapped stack frees; only the free list can hand that stack back.
  Simulation s;
  const void* first = nullptr;
  void* decoy = nullptr;
  int recycled = 0;
  for (int i = 0; i < 10'000; ++i) {
    const void* frame = nullptr;
    s.spawn("p", [&] { frame = __builtin_frame_address(0); });
    s.run();
    if (i == 0) {
      first = frame;
      decoy = mmap(nullptr, Process::kStackBytes + 4096, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      ASSERT_NE(decoy, MAP_FAILED);
    } else if (same_stack(frame, first)) {
      ++recycled;
    }
  }
  munmap(decoy, Process::kStackBytes + 4096);
  EXPECT_EQ(recycled, 9'999);
  EXPECT_EQ(s.live_process_count(), 0u);
}

// Recurses `depth` frames of 1 KiB each, which the optimiser cannot drop.
std::size_t recurse(std::size_t depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return 0;
  return recurse(depth - 1) + static_cast<std::size_t>(frame[0]);
}

TEST(ProcessDeathTest, StackOverflowNamesTheProcess) {
  // Far deeper than Process::kStackBytes: the guard page below the stack
  // turns the overflow into a loud death that names the process.
  EXPECT_DEATH(
      {
        Simulation s;
        s.spawn("runaway", [] { (void)recurse(std::size_t{1} << 30); });
        s.run();
      },
      "stack overflow in process 'runaway'");
}

TEST(ProcessDeathTest, StackOverflowOnARecycledStackNamesTheProcess) {
  // The guard page stays PROT_NONE while a stack waits on the free list, so
  // the next process to take it still dies loudly, under its own name.
  EXPECT_DEATH(
      {
        Simulation s;
        const void* first = nullptr;
        s.spawn("first", [&] { first = __builtin_frame_address(0); });
        s.run();
        s.spawn("runaway", [&] {
          if (!same_stack(__builtin_frame_address(0), first)) {
            std::fputs("the stack was not recycled\n", stderr);
            std::abort();
          }
          (void)recurse(std::size_t{1} << 30);
        });
        s.run();
      },
      "stack overflow in process 'runaway'");
}

}  // namespace
}  // namespace sv::sim
