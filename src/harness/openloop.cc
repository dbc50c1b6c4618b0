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
  const bool incast = cfg.incast_fraction > 0.0;

  OpenLoopResult res;
  sim::Simulation s(cfg.queue_kind);
  net::Cluster cluster(&s, nodes, net::NodeConfig{}, cfg.topology);
  cluster.install_faults(cfg.faults, cfg.seed);
  begin_obs(s, cfg.obs);

  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  std::uint64_t throttled = 0;
  Samples latency;

  // --- SLO control plane (DESIGN.md §15) -------------------------------
  // All of this is inert when cfg.slo is null: no extra metrics, no pump,
  // no extra RNG draws — the historical schedule, digest pins untouched.
  const bool slo_on = cfg.slo != nullptr;
  obs::Counter* c_offered = nullptr;
  obs::Counter* c_throttled = nullptr;
  // Per-destination windowed-latency histograms the controller watches.
  // Bounds are finer than the registry's decade default so p99-vs-target
  // comparisons resolve around millisecond-scale SLOs.
  std::vector<obs::Histogram*> lat_hist;
  if (slo_on) {
    obs::Registry& reg = s.obs().registry;
    c_offered = &reg.counter("slo.offered");
    c_throttled = &reg.counter("slo.throttled");
    const std::vector<std::int64_t> slo_bounds = {
        250'000,    500'000,    1'000'000,   2'000'000,  3'000'000,
        4'000'000,  5'000'000,  7'500'000,   10'000'000, 15'000'000,
        20'000'000, 30'000'000, 50'000'000,  100'000'000};
    lat_hist.resize(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      lat_hist[static_cast<std::size_t>(n)] = &reg.histogram(
          "slo.update_latency_ns{node=node" + std::to_string(n) + "}",
          slo_bounds);
    }
  }

  sockets::SendMuxConfig mux_cfg;
  mux_cfg.transport = cfg.transport;
  std::vector<std::unique_ptr<sockets::SendMux>> muxes;
  muxes.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    muxes.push_back(std::make_unique<sockets::SendMux>(
        &s, &cluster, n, mux_cfg,
        [&s, &delivered, &latency, &lat_hist, slo_on](
            int dst, const sockets::MuxRecord& rec, SimTime at) {
          ++delivered;
          const SimTime l = at - rec.enqueued;
          latency.add(l);
          if (slo_on) {
            lat_hist[static_cast<std::size_t>(dst)]->observe(l.ns());
          }
        }));
  }

  // Per-node connection tables: `fanout` steady destinations (+ one shared
  // hot-node connection when incast redirection is on). Churn rewrites
  // entries in place, so generators always see a live conn id.
  std::vector<std::vector<std::uint64_t>> conns(
      static_cast<std::size_t>(nodes));
  std::vector<std::vector<int>> conn_dsts(static_cast<std::size_t>(nodes));
  std::vector<std::uint64_t> hot_conns(static_cast<std::size_t>(nodes), 0);
  for (int n = 0; n < nodes; ++n) {
    const auto un = static_cast<std::size_t>(n);
    for (int j = 0; j < fanout; ++j) {
      const int dst = (n + 1 + j) % nodes;
      conns[un].push_back(muxes[un]->open_connection(dst));
      conn_dsts[un].push_back(dst);
    }
    if (incast && n != cfg.hot_node) {
      hot_conns[un] = muxes[un]->open_connection(cfg.hot_node);
    }
  }

  // Workload mix: cumulative integer weights for the per-arrival class
  // pick. Empty classes = the implicit single class, picked without an
  // RNG draw (historical stream).
  const bool has_classes = !cfg.classes.empty();
  std::vector<std::uint64_t> cum_weight;
  std::uint64_t weight_sum = 0;
  for (const QueryClass& qc : cfg.classes) {
    SV_ASSERT(qc.weight > 0, "run_open_loop: class weight must be positive");
    weight_sum += static_cast<std::uint64_t>(qc.weight);
    cum_weight.push_back(weight_sum);
  }

  // Controller state shared with the generators. `demoted` re-routes the
  // steady fanout away from degraded replicas; `chunk_bytes` is the live
  // DR chunk size (0 = chunk actuator disabled, submit whole updates).
  std::vector<char> demoted(static_cast<std::size_t>(nodes), 0);
  std::uint64_t chunk_bytes = 0;
  std::unique_ptr<control::AdmissionControl> admission;
  std::unique_ptr<control::Controller> controller;
  if (slo_on) {
    // Admission buckets sized at each class's expected share of the
    // cluster-wide offered rate, plus headroom: at full admission the
    // buckets refill faster than arrivals drain them.
    std::vector<control::AdmissionControl::ClassSpec> specs;
    const double total_rate =
        cfg.arrivals.peak_rate_per_sec() * static_cast<double>(nodes);
    const auto scaled_rate = [&](int weight) {
      const double share = has_classes
                               ? static_cast<double>(weight) /
                                     static_cast<double>(weight_sum)
                               : 1.0;
      const double r = total_rate * share *
                       static_cast<double>(kAdmissionHeadroomPct) / 100.0;
      return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(r));
    };
    if (has_classes) {
      for (const QueryClass& qc : cfg.classes) {
        specs.push_back(
            {qc.name, scaled_rate(qc.weight), kBucketBurst, qc.sheddable});
      }
    } else {
      specs.push_back({"default", scaled_rate(1), kBucketBurst, true});
    }
    admission = std::make_unique<control::AdmissionControl>(std::move(specs));

    chunk_bytes = cfg.slo->controller.chunk_max_bytes;
    control::Actuators acts;
    acts.admission = admission.get();
    acts.apply_chunk_bytes = [&chunk_bytes](std::uint64_t b) {
      chunk_bytes = b;
    };
    acts.apply_demotion = [&muxes, &demoted, nodes](int node) {
      // Quiesce the degraded replica in both directions: flag it so the
      // generators re-route new updates (and shed its own arrivals), and
      // discard every stale queued update headed toward it AND the
      // backlog its stalled sender can no longer ship.
      demoted[static_cast<std::size_t>(node)] = 1;
      for (auto& m : muxes) m->flush_lane(node);
      for (int d = 0; d < nodes; ++d) {
        muxes[static_cast<std::size_t>(node)]->flush_lane(d);
      }
    };
    acts.apply_promotion = [&demoted](int node) {
      demoted[static_cast<std::size_t>(node)] = 0;
    };
    controller = std::make_unique<control::Controller>(
        &s.obs(), cfg.slo->controller, std::move(acts));
    for (int n = 0; n < nodes; ++n) controller->watch_node(n);
    s.obs().attach(controller.get());
    // Decision cadence: ride an existing --metrics-every pump, else run
    // our own at the controller window.
    if (!s.metrics_pump_active()) s.publish_metrics_every(cfg.slo->window);
  }

  // Clients spread evenly: node n models clients_of(n) logical clients;
  // each arrival belongs to a uniformly drawn client of that node.
  const auto clients_of = [&cfg, nodes](int n) {
    const auto base = cfg.clients / static_cast<std::uint64_t>(nodes);
    const auto extra = cfg.clients % static_cast<std::uint64_t>(nodes);
    return std::max<std::uint64_t>(
        1, base + (static_cast<std::uint64_t>(n) < extra ? 1 : 0));
  };

  sim::Channel<int> done(&s, 0, "openloop.done");
  for (int n = 0; n < nodes; ++n) {
    // Per-node streams derived purely from (seed, node id).
    std::uint64_t st =
        cfg.seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(n) + 1);
    const std::uint64_t arrival_seed = splitmix64_next(st);
    const std::uint64_t pick_seed = splitmix64_next(st);
    const std::uint64_t churn_seed = splitmix64_next(st);

    s.spawn("openloop.gen" + std::to_string(n), [&, n, arrival_seed,
                                                 pick_seed] {
      const auto un = static_cast<std::size_t>(n);
      ArrivalProcess ap(cfg.arrivals, arrival_seed);
      Rng pick(pick_seed);
      const std::uint64_t population = clients_of(n);
      for (;;) {
        const SimTime t = ap.next();
        if (t > cfg.duration) break;
        s.delay(t - s.now());
        ++offered;
        const std::uint64_t client = pick.next_below(population);

        // Class pick by cumulative weight (extra draw only with a mix).
        std::size_t cls = 0;
        std::uint64_t bytes = cfg.update_bytes;
        if (has_classes) {
          const std::uint64_t w = pick.next_below(weight_sum);
          while (cum_weight[cls] <= w) ++cls;
          bytes = cfg.classes[cls].update_bytes;
        }
        if (slo_on) c_offered->inc();

        // A demoted node is out of the replication set in both directions:
        // its own updates are shed too (its sender path is what degraded),
        // not queued behind a dead tx path to deliver stale later.
        if (slo_on && demoted[un] != 0) {
          ++throttled;
          c_throttled->inc();
          continue;
        }

        // Admission gate: a throttled arrival is shed at the generator —
        // it never reaches a mux queue (graceful degradation, not
        // open-loop queue collapse).
        if (admission != nullptr && !admission->admit(cls, s.now())) {
          ++throttled;
          c_throttled->inc();
          continue;
        }

        std::uint64_t conn;
        bool to_hot =
            incast && n != cfg.hot_node && pick.bernoulli(cfg.incast_fraction);
        if (to_hot && slo_on && demoted[static_cast<std::size_t>(
                                    cfg.hot_node)] != 0) {
          to_hot = false;  // hot replica demoted: fall back to the fanout
        }
        if (to_hot) {
          conn = hot_conns[un];
        } else {
          std::size_t j =
              static_cast<std::size_t>(client) % conns[un].size();
          if (slo_on) {
            // Deterministic re-route: first non-demoted destination
            // scanning forward from the client's home slot. All demoted
            // (can't happen under max_demoted < fanout) keeps the slot.
            for (std::size_t k = 0; k < conn_dsts[un].size(); ++k) {
              const std::size_t cand = (j + k) % conn_dsts[un].size();
              if (demoted[static_cast<std::size_t>(conn_dsts[un][cand])] ==
                  0) {
                j = cand;
                break;
              }
            }
          }
          conn = conns[un][j];
        }

        // Chunked submit: the DR chunk knob (paper §5) made adaptive —
        // the controller shrinks chunk_bytes under violation so each
        // update pipelines through the fabric in smaller frames.
        const std::uint64_t chunk =
            chunk_bytes > 0 && chunk_bytes < bytes ? chunk_bytes : bytes;
        for (std::uint64_t off = 0; off < bytes; off += chunk) {
          const std::uint64_t piece = std::min(chunk, bytes - off);
          if (!muxes[un]->submit(conn, piece)) ++drops;
        }
      }
      done.send(n);
    });

    if (cfg.churn_per_sec > 0.0) {
      s.spawn("openloop.churn" + std::to_string(n), [&, n, churn_seed] {
        const auto un = static_cast<std::size_t>(n);
        Rng crng(churn_seed);
        const double mean_gap_ns = 1e9 / cfg.churn_per_sec;
        for (;;) {
          const SimTime gap = exp_gap_ns(crng, mean_gap_ns);
          if (s.now() + gap > cfg.duration) break;
          s.delay(gap);
          // Close one steady connection and reopen it to the same peer:
          // the row is replaced, queued records still deliver.
          const std::size_t j = static_cast<std::size_t>(
              crng.next_below(conns[un].size()));
          muxes[un]->close_connection(conns[un][j]);
          conns[un][j] = muxes[un]->open_connection(conn_dsts[un][j]);
        }
      });
    }
  }

  // When every generator has finished its arrival schedule, stop intake;
  // the muxes drain their queues, close their pipes, and the run ends.
  s.spawn("openloop.closer", [&] {
    for (int n = 0; n < nodes; ++n) (void)done.recv();
    for (auto& m : muxes) m->shutdown();
  });

  s.run();
  if (controller != nullptr) s.obs().detach(controller.get());
  export_obs(s, cfg.obs);

  res.offered = offered;
  res.delivered = delivered;
  res.drops = drops;
  res.update_latency = std::move(latency);
  res.events_fired = s.events_fired();
  res.trace_digest = s.engine().trace_digest();
  res.end_time = s.now();
  res.throttled = throttled;
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
