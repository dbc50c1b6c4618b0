#include "harness/openloop.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "net/cluster.h"
#include "sim/sync.h"
#include "sockets/mux.h"

namespace sv::harness {

double ArrivalSpec::peak_rate_per_sec() const {
  double peak = rate_per_sec;
  if (kind == ArrivalKind::kMmpp) {
    peak = std::max(peak, high_rate_per_sec());
  }
  return peak;
}

namespace {

// Admission buckets are sized at the expected per-class offered rate times
// this headroom, so full admission (1000‰) never throttles.
constexpr int kAdmissionHeadroomPct = 120;
constexpr std::uint64_t kBucketBurst = 64;

/// Strictly-positive exponential draw in integer nanoseconds.
SimTime exp_gap_ns(Rng& rng, double mean_ns) {
  return SimTime::nanoseconds(
      static_cast<std::int64_t>(rng.exponential(mean_ns)) + 1);
}

/// What run_open_loop's stages share. run_open_loop owns it for the whole
/// run, so the stages take it by pointer (DESIGN.md §5.2).
struct Run {
  Run(const OpenLoopConfig& cfg_in, sim::Simulation* s_in)
      : cfg(cfg_in),
        s(*s_in),
        nodes(cfg_in.cluster_nodes),
        incast(cfg_in.incast_fraction > 0.0),
        slo_on(cfg_in.slo != nullptr),
        has_classes(!cfg_in.classes.empty()),
        conns(static_cast<std::size_t>(nodes)),
        conn_dsts(static_cast<std::size_t>(nodes)),
        hot_conns(static_cast<std::size_t>(nodes), 0),
        demoted(static_cast<std::size_t>(nodes), 0),
        done(s_in, 0, "openloop.done") {}

  /// Clients spread evenly: node n models clients_of(n) logical clients.
  [[nodiscard]] std::uint64_t clients_of(int n) const {
    const auto base = cfg.clients / static_cast<std::uint64_t>(nodes);
    const auto extra = cfg.clients % static_cast<std::uint64_t>(nodes);
    return std::max<std::uint64_t>(
        1, base + (static_cast<std::uint64_t>(n) < extra ? 1 : 0));
  }

  const OpenLoopConfig& cfg;
  sim::Simulation& s;
  const int nodes;
  const bool incast;
  const bool slo_on;
  /// Workload mix: false = the implicit single class, picked without an
  /// RNG draw (historical stream).
  const bool has_classes;

  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  std::uint64_t throttled = 0;
  Samples latency;
  obs::Counter* c_offered = nullptr;
  obs::Counter* c_throttled = nullptr;
  /// Per-destination windowed-latency histograms the controller watches.
  std::vector<obs::Histogram*> lat_hist;

  std::vector<std::unique_ptr<sockets::SendMux>> muxes;
  /// Per-node connection tables: `fanout` steady destinations (+ one
  /// shared hot-node connection when incast redirection is on). Churn
  /// rewrites entries in place, so generators always see a live conn id.
  std::vector<std::vector<std::uint64_t>> conns;
  std::vector<std::vector<int>> conn_dsts;
  std::vector<std::uint64_t> hot_conns;

  /// Cumulative integer weights for the per-arrival class pick.
  std::vector<std::uint64_t> cum_weight;
  std::uint64_t weight_sum = 0;

  /// Controller state shared with the generators. `demoted` re-routes the
  /// steady fanout away from degraded replicas; `chunk_bytes` is the live
  /// DR chunk size (0 = chunk actuator disabled, submit whole updates).
  std::vector<char> demoted;
  std::uint64_t chunk_bytes = 0;
  std::unique_ptr<control::AdmissionControl> admission;

  /// Each generator sends its node id once its schedule is done.
  sim::Channel<int> done;
};

/// Node n's arrival generator: each arrival belongs to a uniformly drawn
/// client of the node.
sim::Stage generate(Run* run, int n, std::uint64_t arrival_seed,
                    std::uint64_t pick_seed) {
  Run& r = *run;
  const OpenLoopConfig& cfg = r.cfg;
  const auto un = static_cast<std::size_t>(n);
  ArrivalProcess ap(cfg.arrivals, arrival_seed);
  Rng pick(pick_seed);
  const std::uint64_t population = r.clients_of(n);
  for (;;) {
    const SimTime t = ap.next();
    if (t > cfg.duration) break;
    co_await r.s.sleep(t - r.s.now());
    ++r.offered;
    const std::uint64_t client = pick.next_below(population);

    // Class pick by cumulative weight (extra draw only with a mix).
    std::size_t cls = 0;
    std::uint64_t bytes = cfg.update_bytes;
    if (r.has_classes) {
      const std::uint64_t w = pick.next_below(r.weight_sum);
      while (r.cum_weight[cls] <= w) ++cls;
      bytes = cfg.classes[cls].update_bytes;
    }
    if (r.slo_on) r.c_offered->inc();

    // A demoted node is out of the replication set in both directions:
    // its own updates are shed too (its sender path is what degraded),
    // not queued behind a dead tx path to deliver stale later.
    if (r.slo_on && r.demoted[un] != 0) {
      ++r.throttled;
      r.c_throttled->inc();
      continue;
    }

    // Admission gate: a throttled arrival is shed at the generator — it
    // never reaches a mux queue (graceful degradation, not open-loop queue
    // collapse).
    if (r.admission != nullptr && !r.admission->admit(cls, r.s.now())) {
      ++r.throttled;
      r.c_throttled->inc();
      continue;
    }

    std::uint64_t conn;
    bool to_hot =
        r.incast && n != cfg.hot_node && pick.bernoulli(cfg.incast_fraction);
    if (to_hot && r.slo_on &&
        r.demoted[static_cast<std::size_t>(cfg.hot_node)] != 0) {
      to_hot = false;  // hot replica demoted: fall back to the fanout
    }
    if (to_hot) {
      conn = r.hot_conns[un];
    } else {
      const std::vector<int>& dsts = r.conn_dsts[un];
      std::size_t j = static_cast<std::size_t>(client) % r.conns[un].size();
      if (r.slo_on) {
        // Deterministic re-route: first non-demoted destination scanning
        // forward from the client's home slot. All demoted (can't happen
        // under max_demoted < fanout) keeps the slot.
        for (std::size_t k = 0; k < dsts.size(); ++k) {
          const std::size_t cand = (j + k) % dsts.size();
          if (r.demoted[static_cast<std::size_t>(dsts[cand])] == 0) {
            j = cand;
            break;
          }
        }
      }
      conn = r.conns[un][j];
    }

    // Chunked submit: the DR chunk knob (paper §5) made adaptive — the
    // controller shrinks chunk_bytes under violation so each update
    // pipelines through the fabric in smaller frames.
    const std::uint64_t chunk =
        r.chunk_bytes > 0 && r.chunk_bytes < bytes ? r.chunk_bytes : bytes;
    for (std::uint64_t off = 0; off < bytes; off += chunk) {
      const std::uint64_t piece = std::min(chunk, bytes - off);
      if (!r.muxes[un]->submit(conn, piece)) ++r.drops;
    }
  }
  r.done.send(n);  // unbounded: never blocks
}

/// Node n's connection churn: closes one steady connection and reopens it
/// to the same peer; the row is replaced, queued records still deliver.
sim::Stage churn(Run* run, int n, std::uint64_t churn_seed) {
  Run& r = *run;
  const auto un = static_cast<std::size_t>(n);
  Rng crng(churn_seed);
  const double mean_gap_ns = 1e9 / r.cfg.churn_per_sec;
  for (;;) {
    const SimTime gap = exp_gap_ns(crng, mean_gap_ns);
    if (r.s.now() + gap > r.cfg.duration) break;
    co_await r.s.sleep(gap);
    const std::size_t j =
        static_cast<std::size_t>(crng.next_below(r.conns[un].size()));
    r.muxes[un]->close_connection(r.conns[un][j]);
    r.conns[un][j] = r.muxes[un]->open_connection(r.conn_dsts[un][j]);
  }
}

/// When every generator has finished its arrival schedule, stops intake;
/// the muxes drain their queues, close their pipes, and the run ends.
sim::Stage close_when_done(Run* run) {
  Run& r = *run;
  for (int n = 0; n < r.nodes; ++n) {
    while (r.done.empty() && !r.done.closed()) co_await r.done.readable();
    r.done.try_recv();
  }
  for (auto& m : r.muxes) m->shutdown();
}

}  // namespace

ArrivalProcess::ArrivalProcess(const ArrivalSpec& spec, std::uint64_t seed)
    : spec_(spec), peak_(spec.peak_rate_per_sec()) {
  SV_ASSERT(spec_.rate_per_sec > 0.0, "ArrivalSpec: rate must be positive");
  std::uint64_t st = seed;
  arrivals_ = Rng(splitmix64_next(st));
  states_ = Rng(splitmix64_next(st));
  if (spec_.kind == ArrivalKind::kMmpp) {
    state_until_ = exp_gap_ns(
        states_, static_cast<double>(spec_.mmpp_sojourn_low.ns()));
  }
}

double ArrivalProcess::rate_at(SimTime t) {
  double r = spec_.rate_per_sec;
  if (spec_.kind == ArrivalKind::kMmpp) {
    // Advance the sojourn trajectory to t. The state path consumes only
    // the `states_` stream, so it is the same trajectory regardless of
    // how many thinning candidates were drawn along the way.
    while (t >= state_until_) {
      high_ = !high_;
      const SimTime mean =
          high_ ? spec_.mmpp_sojourn_high : spec_.mmpp_sojourn_low;
      state_until_ += exp_gap_ns(states_, static_cast<double>(mean.ns()));
    }
    if (high_) r = spec_.high_rate_per_sec();
  }
  return r;
}

SimTime ArrivalProcess::next() {
  const double mean_gap_ns = 1e9 / peak_;
  for (;;) {
    t_ += exp_gap_ns(arrivals_, mean_gap_ns);
    const double r = rate_at(t_);
    if (arrivals_.uniform01() * peak_ < r) return t_;
  }
}

OpenLoopResult run_open_loop(const OpenLoopConfig& cfg) {
  SV_ASSERT(cfg.cluster_nodes >= 2, "run_open_loop: need at least 2 nodes");
  SV_ASSERT(cfg.duration > SimTime::zero(),
            "run_open_loop: duration must be positive");
  const int nodes = cfg.cluster_nodes;
  const int fanout = std::max(1, std::min(cfg.fanout, nodes - 1));

  OpenLoopResult res;
  sim::Simulation s(cfg.queue_kind);
  net::Cluster cluster(&s, nodes, net::NodeConfig{}, cfg.topology);
  cluster.install_faults(cfg.faults, cfg.seed);
  begin_obs(s, cfg.obs);
  Run run(cfg, &s);

  // --- SLO control plane (DESIGN.md §15) -------------------------------
  // All of this is inert when cfg.slo is null: no extra metrics, no pump,
  // no extra RNG draws — the historical schedule, digest pins untouched.
  if (run.slo_on) {
    obs::Registry& reg = s.obs().registry;
    run.c_offered = &reg.counter("slo.offered");
    run.c_throttled = &reg.counter("slo.throttled");
    // Bounds are finer than the registry's decade default so p99-vs-target
    // comparisons resolve around millisecond-scale SLOs.
    const std::vector<std::int64_t> slo_bounds = {
        250'000,    500'000,    1'000'000,   2'000'000,  3'000'000,
        4'000'000,  5'000'000,  7'500'000,   10'000'000, 15'000'000,
        20'000'000, 30'000'000, 50'000'000,  100'000'000};
    run.lat_hist.resize(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      run.lat_hist[static_cast<std::size_t>(n)] = &reg.histogram(
          "slo.update_latency_ns{node=node" + std::to_string(n) + "}",
          slo_bounds);
    }
  }

  sockets::SendMuxConfig mux_cfg;
  mux_cfg.transport = cfg.transport;
  run.muxes.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    run.muxes.push_back(std::make_unique<sockets::SendMux>(
        &s, &cluster, n, mux_cfg,
        [&run](int dst, const sockets::MuxRecord& rec, SimTime at) {
          ++run.delivered;
          const SimTime l = at - rec.enqueued;
          run.latency.add(l);
          if (run.slo_on) {
            run.lat_hist[static_cast<std::size_t>(dst)]->observe(l.ns());
          }
        }));
  }

  for (int n = 0; n < nodes; ++n) {
    const auto un = static_cast<std::size_t>(n);
    for (int j = 0; j < fanout; ++j) {
      const int dst = (n + 1 + j) % nodes;
      run.conns[un].push_back(run.muxes[un]->open_connection(dst));
      run.conn_dsts[un].push_back(dst);
    }
    if (run.incast && n != cfg.hot_node) {
      run.hot_conns[un] = run.muxes[un]->open_connection(cfg.hot_node);
    }
  }

  for (const QueryClass& qc : cfg.classes) {
    SV_ASSERT(qc.weight > 0, "run_open_loop: class weight must be positive");
    run.weight_sum += static_cast<std::uint64_t>(qc.weight);
    run.cum_weight.push_back(run.weight_sum);
  }

  std::unique_ptr<control::Controller> controller;
  if (run.slo_on) {
    // Admission buckets sized at each class's expected share of the
    // cluster-wide offered rate, plus headroom: at full admission the
    // buckets refill faster than arrivals drain them.
    std::vector<control::AdmissionControl::ClassSpec> specs;
    const double total_rate =
        cfg.arrivals.peak_rate_per_sec() * static_cast<double>(nodes);
    const auto scaled_rate = [&](int weight) {
      const double share = run.has_classes
                               ? static_cast<double>(weight) /
                                     static_cast<double>(run.weight_sum)
                               : 1.0;
      const double r = total_rate * share *
                       static_cast<double>(kAdmissionHeadroomPct) / 100.0;
      return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(r));
    };
    if (run.has_classes) {
      for (const QueryClass& qc : cfg.classes) {
        specs.push_back(
            {qc.name, scaled_rate(qc.weight), kBucketBurst, qc.sheddable});
      }
    } else {
      specs.push_back({"default", scaled_rate(1), kBucketBurst, true});
    }
    run.admission =
        std::make_unique<control::AdmissionControl>(std::move(specs));

    run.chunk_bytes = cfg.slo->controller.chunk_max_bytes;
    control::Actuators acts;
    acts.admission = run.admission.get();
    acts.apply_chunk_bytes = [&run](std::uint64_t b) { run.chunk_bytes = b; };
    acts.apply_demotion = [&run](int node) {
      // Quiesce the degraded replica in both directions: flag it so the
      // generators re-route new updates (and shed its own arrivals), and
      // discard every stale queued update headed toward it AND the
      // backlog its stalled sender can no longer ship.
      run.demoted[static_cast<std::size_t>(node)] = 1;
      for (auto& m : run.muxes) m->flush_lane(node);
      for (int d = 0; d < run.nodes; ++d) {
        run.muxes[static_cast<std::size_t>(node)]->flush_lane(d);
      }
    };
    acts.apply_promotion = [&run](int node) {
      run.demoted[static_cast<std::size_t>(node)] = 0;
    };
    controller = std::make_unique<control::Controller>(
        &s.obs(), cfg.slo->controller, std::move(acts));
    for (int n = 0; n < nodes; ++n) controller->watch_node(n);
    s.obs().attach(controller.get());
    // Decision cadence: ride an existing --metrics-every pump, else run
    // our own at the controller window.
    if (!s.metrics_pump_active()) s.publish_metrics_every(cfg.slo->window);
  }

  for (int n = 0; n < nodes; ++n) {
    // Per-node streams derived purely from (seed, node id).
    std::uint64_t st =
        cfg.seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(n) + 1);
    const std::uint64_t arrival_seed = splitmix64_next(st);
    const std::uint64_t pick_seed = splitmix64_next(st);
    const std::uint64_t churn_seed = splitmix64_next(st);
    s.start(generate(&run, n, arrival_seed, pick_seed));
    if (cfg.churn_per_sec > 0.0) s.start(churn(&run, n, churn_seed));
  }
  s.start(close_when_done(&run));

  s.run();
  if (controller != nullptr) s.obs().detach(controller.get());
  export_obs(s, cfg.obs);

  res.offered = run.offered;
  res.delivered = run.delivered;
  res.drops = run.drops;
  res.update_latency = std::move(run.latency);
  res.events_fired = s.events_fired();
  res.trace_digest = s.engine().trace_digest();
  res.end_time = s.now();
  res.throttled = run.throttled;
  if (controller != nullptr) {
    res.slo_action_log = controller->action_log();
    res.slo_actions = controller->actions().size();
    for (const auto& a : controller->actions()) {
      using Kind = control::Controller::Action::Kind;
      if (a.kind == Kind::kDemote) ++res.slo_demotions;
      if (a.kind == Kind::kPromote) ++res.slo_promotions;
    }
    res.final_admit_permille = controller->admit_permille();
    res.final_chunk_bytes = controller->chunk_bytes();
    res.final_cluster_p99_ns = controller->last_cluster_p99_ns();
  }
  return res;
}

}  // namespace sv::harness
