// Simulator-core benchmark: timing wheel vs. reference heap (DESIGN.md §12).
//
// Five event mixes modeled on what the protocol stacks actually generate:
//
//   uniform       steady-state random horizons within the wheel's L0 span
//                 (the fabric's frame/ACK traffic)
//   bursty        many events on identical timestamps (fan-out completions;
//                 stresses FIFO-within-timestamp ordering)
//   long_horizon  horizons spread over seconds (forces L1/L2 cascades and
//                 the sorted far list)
//   cancel_heavy  the TCP-RTO pattern: arm a far timer, complete shortly
//                 after, cancel the timer — most events die young
//   open_loop     the workload-generator pattern: exponential-ish arrival
//                 gaps, small same-timestamp fan-out per arrival, and a
//                 drain timer per batch that is almost always cancelled
//
// Each mix runs on both QueueKind implementations with identical seeds; the
// trace digests must agree (a benchmark that drifts from the contract is
// measuring the wrong thing). Results go to stdout and to
// BENCH_sim_engine.json at the repo root (a harness::BenchReport): events
// per wall-second and simulated seconds per wall-second, plus the
// wheel:heap speedup per mix. --quick scales every mix down 10x, so
// events_fired is recorded but not gated. CI's bench-smoke job compares a
// fresh --quick run against the committed JSON and fails on >20% wheel
// events/sec regression (tools/bench_compare.py).
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "common/units.h"
#include "harness/bench_report.h"
#include "sim/engine.h"

namespace sv {
namespace {

using sim::Engine;
using sim::QueueKind;

struct MixMeasurement {
  std::uint64_t events_fired = 0;
  std::uint64_t trace_digest = 0;
  double wall_seconds = 0;
  double sim_seconds = 0;

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events_fired) / wall_seconds
                            : 0;
  }
  [[nodiscard]] double sim_per_wall() const {
    return wall_seconds > 0 ? sim_seconds / wall_seconds : 0;
  }
};

/// Runs `mix(engine, rng)` under a wall clock and collects the contract
/// evidence (fired count, digest) alongside the rates.
template <typename Mix>
MixMeasurement run_mix(QueueKind kind, std::uint64_t seed, const Mix& mix) {
  Engine e(kind);
  std::mt19937_64 rng(seed);
  MixMeasurement m;
  m.wall_seconds = harness::wall_seconds([&] { mix(e, rng); });
  m.events_fired = e.events_fired();
  m.trace_digest = e.trace_digest();
  m.sim_seconds = e.now().sec();
  return m;
}

// ---- Mixes -----------------------------------------------------------------

/// Steady state: `live` events in flight, each firing reschedules one at a
/// uniform horizon inside the wheel's L0 span.
void mix_uniform(Engine& e, std::mt19937_64& rng, std::uint64_t events) {
  std::uniform_int_distribution<std::int64_t> horizon(1, 200'000);  // ns
  constexpr int kLive = 1024;
  for (int i = 0; i < kLive; ++i) {
    e.schedule(SimTime::nanoseconds(horizon(rng)), [] {});
  }
  for (std::uint64_t i = 0; i < events; ++i) {
    e.schedule(SimTime::nanoseconds(horizon(rng)), [] {});
    e.step();
  }
  e.run();
}

/// Same-timestamp bursts: fan-out completions landing on one instant.
void mix_bursty(Engine& e, std::mt19937_64& rng, std::uint64_t events) {
  std::uniform_int_distribution<std::int64_t> gap(100, 5'000);  // ns
  constexpr std::uint64_t kBurst = 64;
  for (std::uint64_t done = 0; done < events; done += kBurst) {
    const SimTime at = e.now() + SimTime::nanoseconds(gap(rng));
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      e.schedule_at(at, [] {});
    }
    e.run();
  }
}

/// Horizons spread across seconds: L1/L2 cascades plus the far list.
void mix_long_horizon(Engine& e, std::mt19937_64& rng, std::uint64_t events) {
  std::uniform_int_distribution<int> band(0, 99);
  std::uniform_int_distribution<std::int64_t> near(1, 200'000);
  std::uniform_int_distribution<std::int64_t> mid(200'000, 500'000'000);
  std::uniform_int_distribution<std::int64_t> far(500'000'000,
                                                  30'000'000'000);
  constexpr std::uint64_t kBatch = 4096;
  for (std::uint64_t done = 0; done < events; done += kBatch) {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      const int b = band(rng);
      const std::int64_t h =
          b < 50 ? near(rng) : (b < 85 ? mid(rng) : far(rng));
      e.schedule(SimTime::nanoseconds(h), [] {});
    }
    e.run();
  }
}

/// The TCP retransmit pattern: a 200 ms timer armed per "transfer", almost
/// always cancelled ~2 us later when the transfer completes.
void mix_cancel_heavy(Engine& e, std::mt19937_64& rng,
                      std::uint64_t transfers) {
  std::uniform_int_distribution<std::int64_t> jitter(0, 2'000);  // ns
  sim::EventId timer{};
  for (std::uint64_t i = 0; i < transfers; ++i) {
    if (timer.id != 0) {
      const bool ok = e.cancel(timer);
      SV_ASSERT(ok, "RTO timer vanished before cancel");
    }
    timer = e.schedule(SimTime::milliseconds(200) +
                           SimTime::nanoseconds(jitter(rng)),
                       [] {});
    e.schedule(SimTime::nanoseconds(1'000 + jitter(rng)), [] {});
    e.run_until(e.now() + SimTime::microseconds(4));
  }
  e.run();
}

/// The open-loop generator/mux pattern (harness/openloop.h): arrivals at
/// exponential-ish gaps, each fanning out a small same-timestamp batch
/// (mux aggregation completions), plus a queue-drain timer per batch that
/// is almost always cancelled when the batch ships early.
void mix_open_loop(Engine& e, std::mt19937_64& rng, std::uint64_t arrivals) {
  std::uniform_int_distribution<std::int64_t> gap(1, 40'000);     // ns
  std::uniform_int_distribution<std::int64_t> wire(500, 20'000);  // ns
  std::uniform_int_distribution<int> fanout(2, 6);
  sim::EventId drain_timer{};
  for (std::uint64_t i = 0; i < arrivals; ++i) {
    // Exponential-ish arrival gap via min of two uniforms (cheap, seeded).
    const std::int64_t g = std::min(gap(rng), gap(rng));
    const SimTime at = e.now() + SimTime::nanoseconds(g);
    const int burst = fanout(rng);
    for (int j = 0; j < burst; ++j) {
      e.schedule_at(at + SimTime::nanoseconds(wire(rng)), [] {});
    }
    if (drain_timer.id != 0) (void)e.cancel(drain_timer);
    drain_timer = e.schedule(SimTime::milliseconds(5), [] {});
    e.run_until(at);
  }
  if (drain_timer.id != 0) (void)e.cancel(drain_timer);
  e.run();
}

}  // namespace
}  // namespace sv

int main(int argc, char** argv) {
  using namespace sv;

  bool quick = false;
  std::string json_path = "BENCH_sim_engine.json";
  CliParser cli(
      "Simulator-core benchmark: timing wheel vs reference heap across four "
      "event mixes; emits BENCH_sim_engine.json.");
  cli.add_flag("quick", &quick, "scale event counts down ~10x (CI smoke)");
  cli.add_string("json", &json_path, "output JSON path");
  if (!cli.parse(argc, argv)) return 1;

  const std::uint64_t scale = quick ? 1 : 10;
  const std::uint64_t kEvents = 400'000 * scale;
  const std::uint64_t kTransfers = 120'000 * scale;

  // `wheel_must_win`: the mixes the timing wheel was designed to win; the
  // gate checks them within the fresh run, so it holds on any host.
  struct MixSpec {
    const char* name;
    bool wheel_must_win;
    std::function<void(sim::Engine&, std::mt19937_64&)> body;
  };
  const std::vector<MixSpec> mixes = {
      {"uniform", false,
       [&](sim::Engine& e, std::mt19937_64& r) { mix_uniform(e, r, kEvents); }},
      {"bursty", true,
       [&](sim::Engine& e, std::mt19937_64& r) { mix_bursty(e, r, kEvents); }},
      {"long_horizon", false,
       [&](sim::Engine& e, std::mt19937_64& r) {
         mix_long_horizon(e, r, kEvents);
       }},
      {"cancel_heavy", true,
       [&](sim::Engine& e, std::mt19937_64& r) {
         mix_cancel_heavy(e, r, kTransfers);
       }},
      {"open_loop", true,
       [&](sim::Engine& e, std::mt19937_64& r) {
         mix_open_loop(e, r, kTransfers);
       }},
  };

  harness::BenchReport report("sim_engine", quick);
  for (const MixSpec& spec : mixes) {
    // Per side: one discarded warm-up pass (CPU frequency, allocator state),
    // then best-of-3 timed passes — the minimum wall time is the least
    // noise-contaminated estimate of the queue's actual cost.
    auto best_of = [&](QueueKind kind) {
      (void)run_mix(kind, 99, spec.body);
      MixMeasurement best = run_mix(kind, 7, spec.body);
      for (int rep = 1; rep < 3; ++rep) {
        const MixMeasurement again = run_mix(kind, 7, spec.body);
        SV_ASSERT(again.trace_digest == best.trace_digest,
                  std::string("nondeterministic mix ") + spec.name);
        if (again.wall_seconds < best.wall_seconds) best = again;
      }
      return best;
    };
    const MixMeasurement wheel = best_of(QueueKind::kTimingWheel);
    const MixMeasurement heap = best_of(QueueKind::kReferenceHeap);
    // The two sides must have executed the identical event sequence; a
    // digest mismatch means the bench is comparing different work.
    SV_ASSERT(wheel.trace_digest == heap.trace_digest,
              std::string("queue divergence in mix ") + spec.name);
    SV_ASSERT(wheel.events_fired == heap.events_fired,
              std::string("event-count divergence in mix ") + spec.name);
    const double speedup = heap.events_per_sec() > 0
                               ? wheel.events_per_sec() / heap.events_per_sec()
                               : 0;
    std::printf(
        "%-13s wheel %9.0f ev/s (%7.1f sim-s/wall-s) | heap %9.0f ev/s "
        "(%7.1f sim-s/wall-s) | speedup %.2fx\n",
        spec.name, wheel.events_per_sec(), wheel.sim_per_wall(),
        heap.events_per_sec(), heap.sim_per_wall(), speedup);
    report.row(spec.name, /*in_quick=*/true)
        .info("events_fired", static_cast<double>(wheel.events_fired), 0)
        .ratio("wheel_events_per_sec", wheel.events_per_sec())
        .info("wheel_sim_seconds_per_wall_second", wheel.sim_per_wall(), 2)
        .info("wheel_wall_seconds", wheel.wall_seconds, 4)
        .info("heap_events_per_sec", heap.events_per_sec(), 0)
        .info("heap_sim_seconds_per_wall_second", heap.sim_per_wall(), 2)
        .info("heap_wall_seconds", heap.wall_seconds, 4)
        .info("speedup_events_per_sec", speedup, 2);
    if (spec.wheel_must_win) {
      report.check(std::string(spec.name) + "_wheel_ge_heap", speedup >= 1.0);
    }
  }

  report.write(json_path);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
