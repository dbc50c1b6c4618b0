// Repository benchmark driver (README.md beside this file explains the
// workloads and metrics). One invocation runs one pass of a workload, or
// the layer ladder, and prints one JSON line on stdout; run.py runs it
// many times and aggregates.
//
//   repobench_driver --mode=pass --workload=viz_dr --seed=1 [--artifacts=DIR]
//   repobench_driver --mode=ladder
//
// Every simulation a pass builds is timed in two parts: set-up, from before
// the Simulation is constructed until Simulation::run() is entered, and
// run, from that entry until the Simulation is destroyed. The entry and the
// process spawns are observed through link-time wrappers (CMakeLists.txt),
// so harness::run_open_loop, which builds its simulation internally, is
// split the same way as the simulations built here.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "datacutter/runtime.h"
#include "harness/openloop.h"
#include "mem/ledger.h"
#include "net/cluster.h"
#include "net/fabric.h"
#include "obs/artifacts.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sockets/factory.h"
#include "sockets/tcp_socket.h"
#include "vizapp/server.h"

namespace {

using namespace sv;
using namespace sv::literals;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double cpu_s = 0;
  std::int64_t switches = 0;  // voluntary + involuntary OS context switches
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime), ru.ru_nvcsw + ru.ru_nivcsw};
}

/// This process's peak resident memory (VmHWM). getrusage's ru_maxrss is
/// not used: Linux carries it over from the parent across fork and exec.
std::int64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// Host-time meter of one pass. begin()/end() bracket each simulation's
/// lifetime; the Simulation::run wrapper marks the set-up/run boundary.
struct Meter {
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  // The run and CPU seconds of each simulation, in the order they ran.
  std::vector<double> sim_run_s;
  std::vector<double> sim_cpu_s;
  std::int64_t switches = 0;
  std::uint64_t processes = 0;
  std::uint64_t events = 0;

  bool open = false;
  bool running = false;
  double t_begin = 0;
  double t_run = 0;
  Usage u_run;

  void begin() {
    open = true;
    running = false;
    t_begin = wall_now();
  }
  void on_run() {
    if (!open || running) return;
    running = true;
    u_run = usage_now();
    t_run = wall_now();
  }
  void end() {
    const double t = wall_now();
    const Usage u = usage_now();
    if (!running) {  // the simulation never ran: all of it was set-up
      t_run = t;
      u_run = u;
    }
    setup_s += t_run - t_begin;
    run_s += t - t_run;
    cpu_s += u.cpu_s - u_run.cpu_s;
    sim_run_s.push_back(t - t_run);
    sim_cpu_s.push_back(u.cpu_s - u_run.cpu_s);
    switches += u.switches - u_run.switches;
    open = false;
  }
};

Meter g_meter;

/// Runs `body`, which builds, runs and destroys one simulation, under the
/// pass meter.
template <typename F>
void metered(F&& body) {
  g_meter.begin();
  body();
  g_meter.end();
}

}  // namespace

// ld --wrap targets (see CMakeLists.txt). A member function's `this` is its
// first argument, and class-type parameters passed by value travel as
// pointers to caller-owned temporaries, so these C signatures forward the
// calls unchanged. __real_ of spawn_impl is weak: if the private symbol is
// ever renamed, nothing calls the wrapper and the spawn count reads 0.
extern "C" {
void __real__ZN2sv3sim10Simulation3runEv(sv::sim::Simulation* self);
void __wrap__ZN2sv3sim10Simulation3runEv(sv::sim::Simulation* self) {
  g_meter.on_run();
  const std::uint64_t before = self->events_fired();
  __real__ZN2sv3sim10Simulation3runEv(self);
  if (g_meter.open) g_meter.events += self->events_fired() - before;
}

__attribute__((weak)) void*
__real__ZN2sv3sim10Simulation10spawn_implENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvvEE(
    sv::sim::Simulation* self, void* name, void* body);
void* __wrap__ZN2sv3sim10Simulation10spawn_implENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvvEE(
    sv::sim::Simulation* self, void* name, void* body) {
  if (g_meter.open) ++g_meter.processes;
  return __real__ZN2sv3sim10Simulation10spawn_implENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt8functionIFvvEE(
      self, name, body);
}
}

namespace {

// ---------------------------------------------------------------------------
// Pass record

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One simulation's model outputs, compared exactly against the pins and
/// across passes. Values are JSON literals.
struct Point {
  std::string name;
  std::vector<std::pair<std::string, std::string>> out;

  void add(const std::string& key, std::uint64_t v) {
    out.emplace_back(key, std::to_string(v));
  }
  void add(const std::string& key, std::int64_t v) {
    out.emplace_back(key, std::to_string(v));
  }
  void add_real(const std::string& key, double v) {
    out.emplace_back(key, json_number(v));
  }
  void add_sim(sim::Simulation& s) {
    add("events", s.events_fired());
    add("digest", s.engine().trace_digest());
    add("end_ns", s.now().ns());
  }
};

/// Figure 4 quantities: small-message one-way latency and 64 KiB streaming
/// bandwidth for SocketVIA and kernel TCP.
struct Figure4 {
  double svia_lat_us = 0;
  double tcp_lat_us = 0;
  double svia_bw_mbps = 0;
  double tcp_bw_mbps = 0;
};

struct Pass {
  std::string workload;
  std::uint64_t seed = 0;
  std::string artifacts_dir;  // empty: untraced pass
  std::vector<Point> points;
  std::vector<std::int64_t> latency_ns;  // the workload's unit of work
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  Figure4 fig4;

  [[nodiscard]] obs::Artifacts artifacts(const std::string& point) const {
    obs::Artifacts a;
    if (!artifacts_dir.empty()) {
      a.trace_path = artifacts_dir + "/" + point + ".trace.json";
      a.metrics_path = artifacts_dir + "/" + point + ".metrics.json";
    }
    return a;
  }
  void add_latencies(const Samples& s) {
    for (const double v : s.raw()) {
      latency_ns.push_back(static_cast<std::int64_t>(v));
    }
  }
};

std::string json_list(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    o += (i ? ", " : "") + json_number(v[i]);
  }
  return o + "]";
}

void print_pass(const Pass& p) {
  std::string o = "{\"workload\": \"" + p.workload + "\"";
  o += ", \"seed\": " + std::to_string(p.seed);
  o += ", \"traced\": " + std::string(p.artifacts_dir.empty() ? "false" : "true");
  o += ", \"setup_s\": " + json_number(g_meter.setup_s);
  o += ", \"run_s\": " + json_number(g_meter.run_s);
  o += ", \"cpu_s\": " + json_number(g_meter.cpu_s);
  o += ", \"sim_run_s\": " + json_list(g_meter.sim_run_s);
  o += ", \"sim_cpu_s\": " + json_list(g_meter.sim_cpu_s);
  o += ", \"ctx_switches\": " + std::to_string(g_meter.switches);
  o += ", \"processes\": " + std::to_string(g_meter.processes);
  o += ", \"events\": " + std::to_string(g_meter.events);
  o += ", \"peak_rss_kb\": " + std::to_string(peak_rss_kb());
  o += ", \"ops\": " + std::to_string(p.ops);
  o += ", \"failed\": " + std::to_string(p.failed);
  o += ", \"fig4\": {\"svia_lat_us\": " + json_number(p.fig4.svia_lat_us) +
       ", \"tcp_lat_us\": " + json_number(p.fig4.tcp_lat_us) +
       ", \"svia_bw_mbps\": " + json_number(p.fig4.svia_bw_mbps) +
       ", \"tcp_bw_mbps\": " + json_number(p.fig4.tcp_bw_mbps) + "}";
  o += ", \"points\": [";
  for (std::size_t i = 0; i < p.points.size(); ++i) {
    const Point& pt = p.points[i];
    o += (i ? ", " : "") + std::string("{\"name\": \"") + pt.name + "\"";
    for (const auto& [k, v] : pt.out) o += ", \"" + k + "\": " + v;
    o += "}";
  }
  o += "], \"latency_ns\": [";
  for (std::size_t i = 0; i < p.latency_ns.size(); ++i) {
    o += (i ? "," : "") + std::to_string(p.latency_ns[i]);
  }
  o += "]}";
  std::printf("%s\n", o.c_str());
}

// ---------------------------------------------------------------------------
// Socket micro-benchmarks (the Figure 4 methodology of
// bench/fig04_microbench.cc, with per-exchange samples kept)

struct PingPongResult {
  SimTime one_way;
  Samples exchanges;  // half round-trip time of every exchange
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};

/// Ping-pong of one message per entry of `sizes`. Detailed TCP runs with
/// Nagle off (TCP_NODELAY), as latency micro-benchmarks do.
PingPongResult pingpong(Pass& pass, const std::string& name,
                        const obs::Artifacts& art, sockets::Fidelity fid,
                        net::Transport tr,
                        const std::vector<std::uint64_t>& sizes) {
  PingPongResult r;
  Point pt{name, {}};
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  obs::begin_artifacts(s.obs(), art);
  sockets::SocketFactory factory(&s, &cluster, fid);
  s.spawn("app", [&] {
    sockets::SocketPair pair;
    if (fid == sockets::Fidelity::kDetailed &&
        tr == net::Transport::kKernelTcp) {
      tcpstack::TcpOptions opt;
      opt.nagle = false;
      pair = sockets::DetailedTcpSocket::make_pair(factory.tcp_stack(0),
                                                   factory.tcp_stack(1), opt);
    } else {
      pair = factory.connect(0, 1, tr);
    }
    auto& [a, b] = pair;
    s.spawn("pong", [b = std::move(b)]() mutable {
      while (auto m = b->recv()) b->send(*m);
    });
    const SimTime t0 = s.now();
    for (const std::uint64_t bytes : sizes) {
      const SimTime t = s.now();
      a->send(net::Message{.bytes = bytes});
      ++r.sent;
      if (a->recv()) ++r.received;
      r.exchanges.add((s.now() - t) / 2);
    }
    r.one_way = (s.now() - t0) / static_cast<std::int64_t>(2 * sizes.size());
    a->close_send();
  });
  s.run();
  obs::export_artifacts(s.obs(), art);
  pt.add_sim(s);
  pt.add("one_way_ns", r.one_way.ns());
  pass.points.push_back(std::move(pt));
  return r;
}

struct StreamResult {
  double mbps = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};

StreamResult stream(Pass& pass, const std::string& name,
                    const obs::Artifacts& art, sockets::Fidelity fid,
                    net::Transport tr, std::uint64_t bytes, int iters) {
  StreamResult r;
  Point pt{name, {}};
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  obs::begin_artifacts(s.obs(), art);
  sockets::SocketFactory factory(&s, &cluster, fid);
  SimTime elapsed;
  s.spawn("app", [&] {
    auto [a, b] = factory.connect(0, 1, tr);
    s.spawn("rx", [&, b = std::move(b)]() mutable {
      const SimTime t0 = s.now();
      for (int i = 0; i < iters; ++i) {
        if (b->recv()) ++r.received;
      }
      elapsed = s.now() - t0;
    });
    for (int i = 0; i < iters; ++i) {
      a->send(net::Message{.bytes = bytes});
      ++r.sent;
    }
    a->close_send();
  });
  s.run();
  obs::export_artifacts(s.obs(), art);
  r.mbps = throughput_mbps(bytes * static_cast<std::uint64_t>(iters), elapsed);
  pt.add_sim(s);
  pt.add("elapsed_ns", elapsed.ns());
  pass.points.push_back(std::move(pt));
  return r;
}

// Figure 4 reference points: the smallest size for latency, the largest for
// bandwidth, 50 iterations each (fig04_microbench's default).
constexpr std::uint64_t kFig4SmallBytes = 4;
constexpr std::uint64_t kFig4LargeBytes = 64_KiB;
constexpr int kFig4Iters = 50;

/// Measures the Figure 4 points at `fid`; returns the socket messages
/// offered and lost. As part of the workload (`workload`), the simulations
/// are metered and traced, and their exchanges are latency samples;
/// otherwise they only supply pass.fig4.
std::pair<std::uint64_t, std::uint64_t> figure4(Pass& pass, const char* tag,
                                                sockets::Fidelity fid,
                                                bool workload) {
  std::uint64_t ops = 0;
  std::uint64_t lost = 0;
  const std::vector<std::uint64_t> small(kFig4Iters, kFig4SmallBytes);
  const auto latency = [&](const char* point, net::Transport tr) {
    const std::string name = std::string(tag) + point;
    double us = 0;
    const auto body = [&] {
      auto r = pingpong(pass, name,
                        workload ? pass.artifacts(name) : obs::Artifacts{},
                        fid, tr, small);
      us = r.one_way.us();
      ops += 2 * r.sent;
      lost += 2 * (r.sent - r.received);
      if (workload) pass.add_latencies(r.exchanges);
    };
    workload ? metered(body) : body();
    return us;
  };
  const auto bandwidth = [&](const char* point, net::Transport tr) {
    const std::string name = std::string(tag) + point;
    double mbps = 0;
    const auto body = [&] {
      auto r = stream(pass, name,
                      workload ? pass.artifacts(name) : obs::Artifacts{}, fid,
                      tr, kFig4LargeBytes, kFig4Iters);
      mbps = r.mbps;
      ops += r.sent;
      lost += r.sent - r.received;
    };
    workload ? metered(body) : body();
    return mbps;
  };
  pass.fig4.svia_lat_us = latency("svia_pingpong_4", net::Transport::kSocketVia);
  pass.fig4.tcp_lat_us = latency("tcp_pingpong_4", net::Transport::kKernelTcp);
  pass.fig4.svia_bw_mbps =
      bandwidth("svia_stream_64k", net::Transport::kSocketVia);
  pass.fig4.tcp_bw_mbps =
      bandwidth("tcp_stream_64k", net::Transport::kKernelTcp);
  return {ops, lost};
}

// ---------------------------------------------------------------------------
// Workload viz_dr: the Virtual Microscope under an update-rate guarantee
// (the Figure 7 methodology of harness/vizbench.cc, built here so set-up
// and run are timed apart).

constexpr int kVizNodes = 16;
constexpr std::uint64_t kVizImage = 512_KiB;
constexpr double kVizUpdatesPerSec = 3.0;
constexpr int kVizUpdates = 3;
constexpr int kVizWarmup = 1;
// Partial-update probes arrive as a Poisson stream (seeded): exponential
// gaps of this mean between one probe's completion and the next.
constexpr double kVizProbeGapMeanNs = 5e6;

void viz_point(Pass& pass, const std::string& name, net::Transport tr,
               std::uint64_t block) {
  Point pt{name, {}};
  Samples partial;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::vector<SimTime> completions;
  metered([&] {
    sim::Simulation s;
    net::Cluster cluster(&s, kVizNodes);
    const obs::Artifacts art = pass.artifacts(name);
    obs::begin_artifacts(s.obs(), art);
    sockets::SocketFactory factory(&s, &cluster);
    viz::VizConfig cfg;
    cfg.transport = tr;
    cfg.image_bytes = kVizImage;
    cfg.block_bytes = block;
    viz::VizApp updates(&s, &cluster, &factory, cfg);
    viz::VizApp probes(&s, &cluster, &factory, cfg);
    updates.start();
    probes.start();

    const auto interval = SimTime::nanoseconds(
        static_cast<std::int64_t>(1e9 / kVizUpdatesPerSec));
    bool updates_finished = false;
    s.spawn("update_submitter", [&] {
      for (int i = 0; i < kVizUpdates; ++i) {
        updates.submit(viz::Query{viz::QueryType::kComplete, 0, 4});
        ++submitted;
        if (i + 1 < kVizUpdates) s.delay(interval);
      }
    });
    s.spawn("update_collector", [&] {
      for (int i = 0; i < kVizUpdates; ++i) {
        auto done = updates.wait_done();
        if (!done) break;
        ++completed;
        completions.push_back(done->second);
      }
      updates_finished = true;
      updates.close();
      probes.close();
    });
    s.spawn("probe_client", [&] {
      Rng rng(pass.seed);
      const auto blocks = probes.image().block_count();
      s.delay(interval / 2);
      while (!updates_finished) {
        const SimTime t0 = s.now();
        probes.submit(
            viz::Query{viz::QueryType::kPartial, rng.next_below(blocks), 4});
        ++submitted;
        if (!probes.wait_done()) break;
        ++completed;
        if (!updates_finished) partial.add(s.now() - t0);
        s.delay(SimTime::nanoseconds(
            static_cast<std::int64_t>(rng.exponential(kVizProbeGapMeanNs))));
      }
    });
    s.run();
    obs::export_artifacts(s.obs(), art);
    pt.add_sim(s);
  });
  double achieved = 0;
  if (completions.size() > static_cast<std::size_t>(kVizWarmup) + 1) {
    const SimTime span =
        completions.back() - completions[static_cast<std::size_t>(kVizWarmup)];
    const auto n = completions.size() - static_cast<std::size_t>(kVizWarmup) - 1;
    achieved = static_cast<double>(n) * 1e9 / static_cast<double>(span.ns());
  }
  pt.add_real("achieved_ups", achieved);
  pt.add("partials", static_cast<std::uint64_t>(partial.count()));
  pt.add_real("partial_mean_ns", partial.mean());
  pass.points.push_back(std::move(pt));
  pass.add_latencies(partial);
  pass.ops += submitted;
  pass.failed += submitted - completed;
}

void run_viz_dr(Pass& pass) {
  // TCP and SocketVIA with the same 16 KiB blocks, then SocketVIA with the
  // 2 KiB blocks its own curves choose at this rate (DR, repartitioned).
  viz_point(pass, "tcp_16k", net::Transport::kKernelTcp, 16_KiB);
  viz_point(pass, "svia_16k", net::Transport::kSocketVia, 16_KiB);
  viz_point(pass, "svia_dr_2k", net::Transport::kSocketVia, 2_KiB);
  figure4(pass, "fast_", sockets::Fidelity::kFast, /*workload=*/false);
}

// ---------------------------------------------------------------------------
// Workload openloop_slo: the controlled run of bench/slo_guarantees.cc.

constexpr int kSloNodes = 16;
constexpr int kSloDegradedA = 2;  // also the incast hot node
constexpr int kSloDegradedB = 3;

harness::SloControlConfig slo_config() {
  harness::SloControlConfig slo;
  slo.window = SimTime::milliseconds(5);
  slo.controller.targets.p99_update_latency = SimTime::milliseconds(5);
  slo.controller.band_high_pct = 100;
  slo.controller.band_low_pct = 60;
  slo.controller.violate_windows = 2;
  slo.controller.recover_windows = 4;
  slo.controller.cooldown = SimTime::milliseconds(10);
  slo.controller.min_window_samples = 8;
  slo.controller.throttle_step_permille = 250;
  slo.controller.min_admit_permille = 250;
  slo.controller.chunk_min_bytes = 1024;
  slo.controller.chunk_max_bytes = 4096;
  slo.controller.demote_latency_pct = 150;
  slo.controller.demote_windows = 2;
  slo.controller.max_demoted = 2;
  slo.controller.demote_hold = SimTime::milliseconds(80);
  return slo;
}

harness::OpenLoopConfig slo_workload(std::uint64_t seed) {
  harness::OpenLoopConfig cfg;
  cfg.transport = net::Transport::kSocketVia;
  cfg.cluster_nodes = kSloNodes;
  cfg.topology = net::TopologySpec::fat_tree(4);
  cfg.seed = seed;
  cfg.clients = 16'000;
  cfg.arrivals.kind = harness::ArrivalKind::kPoisson;
  cfg.arrivals.rate_per_sec = 2'000.0;
  cfg.update_bytes = 1024;
  cfg.fanout = 4;
  cfg.incast_fraction = 0.2;
  cfg.hot_node = kSloDegradedA;
  cfg.duration = SimTime::milliseconds(600);
  cfg.classes.push_back({"interactive", 1, 512, /*sheddable=*/false});
  cfg.classes.push_back({"bulk", 3, 4'096, /*sheddable=*/true});
  net::NodeFault stall_a;
  stall_a.node = kSloDegradedA;
  stall_a.start = SimTime::milliseconds(20);
  stall_a.duration = SimTime::milliseconds(60);
  stall_a.slow_factor = 0;
  net::NodeFault stall_b = stall_a;
  stall_b.node = kSloDegradedB;
  cfg.faults.nodes = {stall_a, stall_b};
  cfg.faults.all_links.loss = 0.002;
  cfg.faults.all_links.burst_continue = 0.5;
  return cfg;
}

void run_openloop_slo(Pass& pass) {
  const harness::SloControlConfig slo = slo_config();
  harness::OpenLoopConfig cfg = slo_workload(pass.seed);
  cfg.slo = &slo;
  cfg.obs = pass.artifacts("controlled");
  harness::OpenLoopResult r;
  metered([&] { r = harness::run_open_loop(cfg); });
  Point pt{"controlled", {}};
  pt.add("events", r.events_fired);
  pt.add("digest", r.trace_digest);
  pt.add("end_ns", r.end_time.ns());
  pt.add("offered", r.offered);
  pt.add("delivered", r.delivered);
  pt.add("drops", r.drops);
  pt.add("throttled", r.throttled);
  pt.add_real("p50_update_ns", r.update_latency.percentile(50.0));
  pt.add_real("p99_update_ns", r.update_latency.percentile(99.0));
  pt.add("slo_actions", r.slo_actions);
  pt.add("demotions", r.slo_demotions);
  pt.add("promotions", r.slo_promotions);
  pt.add("final_admit_permille",
         static_cast<std::uint64_t>(r.final_admit_permille));
  pt.add("final_chunk_bytes", r.final_chunk_bytes);
  pass.points.push_back(std::move(pt));
  pass.add_latencies(r.update_latency);
  // Updates the controller sheds by design (admission throttling, queues
  // flushed from demoted replicas) are pinned outputs; only updates lost
  // to a full send queue count as failed.
  pass.ops += r.offered;
  pass.failed += r.drops;
  figure4(pass, "fast_", sockets::Fidelity::kFast, /*workload=*/false);
}

// ---------------------------------------------------------------------------
// Workload proto_detailed: two nodes at detailed fidelity.

constexpr int kMixExchanges = 300;
constexpr std::uint64_t kMixMaxBytes = 4_KiB;

/// Seeded message sizes, log-uniform over [4 B, 4 KiB] (Figure 4(a)'s
/// range), in seeded order. Stratified, one size per equal slice of the
/// log range, so that the latency percentiles hardly move between seeds.
std::vector<std::uint64_t> mix_sizes(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> sizes;
  const double lo = std::log2(static_cast<double>(kFig4SmallBytes));
  const double hi = std::log2(static_cast<double>(kMixMaxBytes));
  for (int i = 0; i < kMixExchanges; ++i) {
    const double slice = (i + rng.uniform01()) / kMixExchanges;
    sizes.push_back(
        static_cast<std::uint64_t>(std::exp2(lo + (hi - lo) * slice)));
  }
  for (std::size_t i = sizes.size(); i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng.next_below(i)]);
  }
  return sizes;
}

void run_proto_detailed(Pass& pass) {
  const auto [ops, lost] =
      figure4(pass, "", sockets::Fidelity::kDetailed, /*workload=*/true);
  pass.ops += ops;
  pass.failed += lost;
  const std::vector<std::uint64_t> sizes = mix_sizes(pass.seed);
  struct Mix {
    const char* name;
    net::Transport transport;
  };
  for (const Mix& mix : {Mix{"svia_mix", net::Transport::kSocketVia},
                         Mix{"tcp_mix", net::Transport::kKernelTcp}}) {
    metered([&] {
      auto r = pingpong(pass, mix.name, pass.artifacts(mix.name),
                        sockets::Fidelity::kDetailed, mix.transport, sizes);
      pass.ops += 2 * r.sent;
      pass.failed += 2 * (r.sent - r.received);
      pass.add_latencies(r.exchanges);
    });
  }
}

// ---------------------------------------------------------------------------
// Layer ladder: host ns per operation of each layer, each timed by calling
// that layer's public functions in isolation.

/// Median of three timed repetitions of `fn`, which returns
/// (seconds, operations).
template <typename F>
double ns_per_op(F&& fn) {
  std::vector<double> v;
  for (int i = 0; i < 3; ++i) {
    const auto [sec, ops] = fn();
    v.push_back(sec * 1e9 / ops);
  }
  std::sort(v.begin(), v.end());
  return v[1];
}

/// Host seconds of s.run().
double timed_run(sim::Simulation& s) {
  const double t0 = wall_now();
  s.run();
  return wall_now() - t0;
}

class SourceFilter final : public dc::Filter {
 public:
  explicit SourceFilter(int buffers) : buffers_(buffers) {}
  void process(dc::FilterContext& ctx) override {
    for (int i = 0; i < buffers_; ++i) {
      dc::DataBuffer b;
      b.bytes = 2_KiB;
      ctx.write(std::move(b));
    }
  }

 private:
  int buffers_;
};

class SinkFilter final : public dc::Filter {
 public:
  void process(dc::FilterContext& ctx) override {
    while (ctx.read()) {
    }
  }
};

double socket_msg_ns(sockets::Fidelity fid, net::Transport tr) {
  constexpr int kMsgs = 200;
  return ns_per_op([&] {
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    sockets::SocketFactory factory(&s, &cluster, fid);
    s.spawn("app", [&] {
      auto [a, b] = factory.connect(0, 1, tr);
      s.spawn("rx", [b = std::move(b)]() mutable {
        while (b->recv()) {
        }
      });
      for (int i = 0; i < kMsgs; ++i) a->send(net::Message{.bytes = 16_KiB});
      a->close_send();
    });
    return std::pair{timed_run(s), double{kMsgs}};
  });
}

void run_ladder() {
  std::vector<std::pair<std::string, double>> rungs;

  rungs.emplace_back("sim.event_ns", ns_per_op([] {
    constexpr int kEvents = 200'000;
    sim::Engine e;
    for (int i = 0; i < kEvents; ++i) e.schedule(SimTime(i), [] {});
    const double t0 = wall_now();
    e.run();
    return std::pair{wall_now() - t0, double{kEvents}};
  }));

  // One suspend/resume round of a process. Its OS context switches per
  // round convert a workload's switch count into rounds for
  // attr.switch_share.
  double switches_per_round = 0;
  rungs.emplace_back("sim.switch_ns", ns_per_op([&] {
    constexpr int kDelays = 20'000;
    sim::Simulation s;
    s.spawn("p", [&] {
      for (int i = 0; i < kDelays; ++i) s.delay(1_us);
    });
    const Usage u0 = usage_now();
    const double sec = timed_run(s);
    switches_per_round =
        static_cast<double>(usage_now().switches - u0.switches) / kDelays;
    return std::pair{sec, double{kDelays}};
  }));
  rungs.emplace_back("switches_per_round", switches_per_round);

  rungs.emplace_back("sim.channel_ns", ns_per_op([] {
    constexpr int kItems = 20'000;
    sim::Simulation s;
    sim::Channel<int> ch(&s, 16);
    s.spawn("tx", [&] {
      for (int i = 0; i < kItems; ++i) ch.send(i);
      ch.close();
    });
    s.spawn("rx", [&] {
      while (ch.recv()) {
      }
    });
    return std::pair{timed_run(s), double{kItems}};
  }));

  rungs.emplace_back("sim.resource_ns", ns_per_op([] {
    constexpr int kUses = 20'000;
    sim::Simulation s;
    sim::Resource r(&s, 2);
    for (int p = 0; p < 4; ++p) {
      s.spawn("p" + std::to_string(p), [&] {
        for (int i = 0; i < kUses / 4; ++i) r.use(1_us);
      });
    }
    return std::pair{timed_run(s), double{kUses}};
  }));

  rungs.emplace_back("net.frame_ns", ns_per_op([] {
    constexpr int kMsgs = 200;
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    net::Pipe pipe(&s, &cluster.node(0), &cluster.node(1),
                   net::CalibrationProfile::socket_via(), "ladder");
    s.spawn("tx", [&] {
      for (int i = 0; i < kMsgs; ++i) pipe.send(net::Message{.bytes = 64_KiB});
      pipe.close();
    });
    s.spawn("rx", [&] {
      while (pipe.recv()) {
      }
    });
    const double sec = timed_run(s);
    return std::pair{sec, static_cast<double>(s.obs().registry.sum_counters(
                              "fabric.frames{"))};
  }));

  rungs.emplace_back("sockets.fast_msg_ns.svia",
                     socket_msg_ns(sockets::Fidelity::kFast,
                                   net::Transport::kSocketVia));
  rungs.emplace_back("sockets.fast_msg_ns.tcp",
                     socket_msg_ns(sockets::Fidelity::kFast,
                                   net::Transport::kKernelTcp));
  rungs.emplace_back("sockets.detailed_msg_ns.svia",
                     socket_msg_ns(sockets::Fidelity::kDetailed,
                                   net::Transport::kSocketVia));
  rungs.emplace_back("sockets.detailed_msg_ns.tcp",
                     socket_msg_ns(sockets::Fidelity::kDetailed,
                                   net::Transport::kKernelTcp));

  rungs.emplace_back("mem.charge_copy_ns", ns_per_op([] {
    constexpr int kCopies = 200'000;
    obs::Hub hub;
    const double t0 = wall_now();
    for (int i = 0; i < kCopies; ++i) {
      mem::charge_copy(&hub, SimTime(i), 0, "tcp.user_to_kernel", 1460);
    }
    return std::pair{wall_now() - t0, double{kCopies}};
  }));

  rungs.emplace_back("dc.hop_ns", ns_per_op([] {
    static constexpr int kBuffers = 1'000;
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    sockets::SocketFactory factory(&s, &cluster);
    dc::FilterGroup group;
    group.add_filter(
        "src", [] { return std::make_unique<SourceFilter>(kBuffers); }, {0});
    group.add_filter("sink", [] { return std::make_unique<SinkFilter>(); },
                     {1});
    group.add_stream("src", "sink");
    dc::Runtime rt(&s, &cluster, &factory, std::move(group));
    rt.start();
    rt.submit(dc::Uow{1, {}});
    rt.close_input();
    s.spawn("waiter", [&] {
      while (rt.wait_completion()) {
      }
    });
    return std::pair{timed_run(s), double{kBuffers}};
  }));

  rungs.emplace_back("viz.partial_ns", ns_per_op([] {
    constexpr int kQueries = 100;
    sim::Simulation s;
    net::Cluster cluster(&s, kVizNodes);
    sockets::SocketFactory factory(&s, &cluster);
    viz::VizConfig cfg;
    cfg.image_bytes = kVizImage;
    cfg.block_bytes = 16_KiB;
    viz::VizApp app(&s, &cluster, &factory, cfg);
    app.start();
    s.spawn("client", [&] {
      for (int i = 0; i < kQueries; ++i) {
        app.submit(viz::Query{viz::QueryType::kPartial,
                              static_cast<std::uint64_t>(i), 4});
        app.wait_done();
      }
      app.close();
    });
    return std::pair{timed_run(s), double{kQueries}};
  }));

  rungs.emplace_back("openloop.arrival_ns", ns_per_op([] {
    constexpr int kArrivals = 200'000;
    harness::ArrivalSpec spec;
    spec.rate_per_sec = 2'000.0;
    harness::ArrivalProcess ap(spec, 11);
    std::int64_t sink = 0;
    const double t0 = wall_now();
    for (int i = 0; i < kArrivals; ++i) sink += ap.next().ns();
    const double sec = wall_now() - t0;
    if (sink == 0) std::printf("#");  // keeps the loop observable
    return std::pair{sec, double{kArrivals}};
  }));

  std::string o = "{";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    o += (i ? ", \"" : "\"") + rungs[i].first + "\": " +
         json_number(rungs[i].second);
  }
  o += "}";
  std::printf("%s\n", o.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "pass";
  std::string workload;
  std::int64_t seed = 1;
  std::string artifacts;
  CliParser cli("repository benchmark driver: one pass of a workload, or the "
                "layer ladder, as one JSON line");
  cli.add_string("mode", &mode, "pass | ladder");
  cli.add_string("workload", &workload,
                 "viz_dr | openloop_slo | proto_detailed");
  cli.add_int("seed", &seed, "workload seed");
  cli.add_string("artifacts", &artifacts,
                 "traced pass: write each simulation's trace and metrics "
                 "here (empty = untraced)");
  if (!cli.parse(argc, argv)) return 2;

  try {
    if (mode == "ladder") {
      run_ladder();
      return 0;
    }
    if (mode != "pass" || seed < 0) {
      std::fprintf(stderr, "bad --mode or --seed\n%s", cli.usage().c_str());
      return 2;
    }
    Pass pass;
    pass.workload = workload;
    pass.seed = static_cast<std::uint64_t>(seed);
    pass.artifacts_dir = artifacts;
    if (workload == "viz_dr") {
      run_viz_dr(pass);
    } else if (workload == "openloop_slo") {
      run_openloop_slo(pass);
    } else if (workload == "proto_detailed") {
      run_proto_detailed(pass);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
    print_pass(pass);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repobench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
