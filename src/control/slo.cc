#include "control/slo.h"

#include <cstdio>

#include "common/check.h"

namespace sv::control {

// ---------------------------------------------------------------------------
// AdmissionControl

AdmissionControl::AdmissionControl(std::vector<ClassSpec> specs) {
  SV_ASSERT(!specs.empty(), "AdmissionControl: need at least one class");
  classes_.reserve(specs.size());
  for (ClassSpec& spec : specs) {
    SV_ASSERT(spec.rate_per_sec > 0,
              "AdmissionControl: class rate must be positive");
    TokenBucket bucket(spec.rate_per_sec, spec.burst);
    classes_.push_back(ClassState{std::move(spec), bucket});
  }
}

bool AdmissionControl::admit(std::size_t cls, SimTime now) {
  SV_ASSERT(cls < classes_.size(), "AdmissionControl: class out of range");
  ClassState& state = classes_[cls];
  // Full admission and non-sheddable classes bypass the buckets entirely,
  // so an uncontrolled run (permille stays 1000) takes the historical
  // code path: no bucket state advances, no verdict ever differs.
  if (!state.spec.sheddable || permille_ >= 1000) return true;
  return state.bucket.try_take(now);
}

void AdmissionControl::set_admit_permille(std::uint32_t permille) {
  permille_ = permille;
  for (ClassState& state : classes_) {
    if (!state.spec.sheddable) continue;
    const std::uint64_t scaled =
        state.spec.rate_per_sec * static_cast<std::uint64_t>(permille) / 1000;
    state.bucket.set_rate(scaled > 0 ? scaled : 1);
  }
}

// ---------------------------------------------------------------------------
// Controller

Controller::Controller(obs::Hub* hub, ControllerConfig cfg,
                       Actuators actuators)
    : hub_(hub),
      cfg_(cfg),
      acts_(std::move(actuators)),
      chunk_bytes_(cfg.chunk_max_bytes),
      // Eligible to act at the very first window: backdate the cooldown.
      last_cluster_action_(SimTime::zero() - cfg.cooldown) {
  SV_ASSERT(hub_ != nullptr, "Controller: hub required");
  SV_ASSERT(cfg_.band_high_pct >= cfg_.band_low_pct,
            "Controller: hysteresis band inverted");
  SV_ASSERT(cfg_.violate_windows > 0 && cfg_.recover_windows > 0,
            "Controller: window streaks must be positive");
  SV_ASSERT(cfg_.chunk_max_bytes == 0 ||
                cfg_.chunk_min_bytes <= cfg_.chunk_max_bytes,
            "Controller: chunk bounds inverted");
  obs::Registry& reg = hub_->registry;
  c_windows_ = &reg.counter("slo.windows");
  c_actions_ = &reg.counter("slo.actions");
  c_throttles_ = &reg.counter("slo.throttle_steps");
  c_releases_ = &reg.counter("slo.release_steps");
  c_chunk_shrinks_ = &reg.counter("slo.chunk_shrinks");
  c_chunk_grows_ = &reg.counter("slo.chunk_grows");
  c_demotions_ = &reg.counter("slo.demotions");
  c_promotions_ = &reg.counter("slo.promotions");
  g_admit_ = &reg.gauge("slo.admit_permille");
  g_chunk_ = &reg.gauge("slo.chunk_bytes");
  g_p99_ = &reg.gauge("slo.cluster_p99_ns");
  g_admit_->set(static_cast<std::int64_t>(admit_permille_));
  g_chunk_->set(static_cast<std::int64_t>(chunk_bytes_));
}

void Controller::watch_node(int node) {
  NodeState state;
  state.node = node;
  nodes_.push_back(std::move(state));
}

const char* Controller::kind_name(Action::Kind kind) {
  switch (kind) {
    case Action::Kind::kThrottle:
      return "throttle";
    case Action::Kind::kRelease:
      return "release";
    case Action::Kind::kChunkShrink:
      return "chunk_shrink";
    case Action::Kind::kChunkGrow:
      return "chunk_grow";
    case Action::Kind::kDemote:
      return "demote";
    case Action::Kind::kPromote:
      return "promote";
  }
  return "?";
}

bool Controller::is_demoted(int node) const {
  for (const NodeState& state : nodes_) {
    if (state.node == node) return state.demoted;
  }
  return false;
}

int Controller::demoted_count() const {
  int n = 0;
  for (const NodeState& state : nodes_) n += state.demoted ? 1 : 0;
  return n;
}

std::string Controller::action_log() const {
  std::string out;
  char line[96];
  for (const Action& a : actions_) {
    std::snprintf(line, sizeof line, "%lld %s %d %llu\n",
                  static_cast<long long>(a.at.ns()), kind_name(a.kind),
                  a.node, static_cast<unsigned long long>(a.value));
    out += line;
  }
  return out;
}

void Controller::record(SimTime at, Action::Kind kind, int node,
                        std::uint64_t value) {
  actions_.push_back(Action{at, kind, node, value});
  c_actions_->inc();
  hub_->tracer.instant(at, node, "slo", kind_name(kind), value);
}

void Controller::on_snapshot(const obs::Snapshot& snap) {
  c_windows_->inc();

  // Offered-load guard for silence detection: when the workload exports
  // `slo.offered`, a window with zero arrivals (a lull, or the end-of-run
  // drain) must not read as node stalls.
  if (!offered_.bound()) {
    offered_.bind(snap.registry->find_counter("slo.offered"));
  }
  const bool load_active = !offered_.bound() || offered_.advance() > 0;

  // Advance every node window (lazy-binding histograms that appeared since
  // the last publish) and merge into a cluster-wide window.
  obs::HistogramWindow cluster;
  for (NodeState& state : nodes_) {
    if (!state.latency.bound()) {
      char name[64];
      std::snprintf(name, sizeof name, "slo.update_latency_ns{node=node%d}",
                    state.node);
      const obs::Histogram* hist = snap.registry->find_histogram(name);
      if (hist != nullptr) state.latency.bind(hist);
    }
    state.lifetime_samples += state.latency.advance();
    cluster.merge(state.latency);
  }

  last_p99_ns_ = cluster.percentile(99);
  g_p99_->set(last_p99_ns_);

  // Per-node decisions first so the cluster ladder sees stable membership.
  step_demotions(snap.at, cluster.count(), load_active);
  step_cluster(snap.at, cluster);
}

void Controller::step_demotions(SimTime at, std::uint64_t cluster_count,
                                bool load_active) {
  if (cfg_.demote_windows <= 0) return;
  const std::int64_t node_limit =
      cfg_.targets.p99_update_latency.ns() * cfg_.demote_latency_pct / 100;
  const bool cluster_active =
      load_active && cluster_count >= cfg_.min_window_samples;
  for (NodeState& state : nodes_) {
    if (state.demoted) {
      // Probation: promote after demote_hold, regardless of the (empty,
      // traffic was shifted away) local window.
      if (at - state.demoted_at >= cfg_.demote_hold) {
        state.demoted = false;
        state.bad_windows = 0;
        c_promotions_->inc();
        record(at, Action::Kind::kPromote, state.node, 0);
        if (acts_.apply_promotion) acts_.apply_promotion(state.node);
      }
      continue;
    }
    const bool slow = state.latency.count() >= cfg_.min_window_samples &&
                      state.latency.percentile(99) > node_limit;
    // Also demote a node that previously delivered but went *silent* (zero
    // window samples) while the rest of the cluster is actively delivering
    // — the signature of a full stall, which produces no latency samples
    // at all until it ends (and then a flood of late ones). Guarded by the
    // `slo.offered` counter when present: a quiet node during a workload
    // lull or the end-of-run drain is idle, not stalled.
    const bool silent = cluster_active && state.lifetime_samples > 0 &&
                        state.latency.count() == 0;
    state.bad_windows = slow || silent ? state.bad_windows + 1 : 0;
    if (state.bad_windows >= cfg_.demote_windows &&
        demoted_count() < cfg_.max_demoted) {
      state.demoted = true;
      state.demoted_at = at;
      state.bad_windows = 0;
      c_demotions_->inc();
      record(at, Action::Kind::kDemote, state.node,
             static_cast<std::uint64_t>(
                 silent ? 0 : state.latency.percentile(99)));
      if (acts_.apply_demotion) acts_.apply_demotion(state.node);
    }
  }
}

void Controller::step_cluster(SimTime at, const obs::HistogramWindow& cluster) {
  // Hysteresis classification: above the high band counts toward
  // violation, below the low band toward recovery; the dead zone between
  // them (and thin windows) resets neither streak to avoid flapping on
  // boundary noise.
  const std::int64_t target = cfg_.targets.p99_update_latency.ns();
  const std::int64_t high = target * cfg_.band_high_pct / 100;
  const std::int64_t low = target * cfg_.band_low_pct / 100;
  if (cluster.count() < cfg_.min_window_samples) return;
  const std::int64_t p99 = cluster.percentile(99);
  if (p99 > high) {
    ++violate_streak_;
    healthy_streak_ = 0;
  } else if (p99 < low) {
    ++healthy_streak_;
    violate_streak_ = 0;
  }
  if (at - last_cluster_action_ < cfg_.cooldown) return;

  if (violate_streak_ >= cfg_.violate_windows) {
    // Escalation ladder: shed load first (cheapest to undo), then shrink
    // the DR chunk so each update pipelines in smaller frames.
    if (admit_permille_ > cfg_.min_admit_permille) {
      const std::uint32_t step = cfg_.throttle_step_permille;
      admit_permille_ = admit_permille_ > cfg_.min_admit_permille + step
                            ? admit_permille_ - step
                            : cfg_.min_admit_permille;
      g_admit_->set(static_cast<std::int64_t>(admit_permille_));
      c_throttles_->inc();
      record(at, Action::Kind::kThrottle, -1, admit_permille_);
      if (acts_.admission != nullptr) {
        acts_.admission->set_admit_permille(admit_permille_);
      }
    } else if (cfg_.chunk_max_bytes > 0 &&
               chunk_bytes_ > cfg_.chunk_min_bytes) {
      const std::uint64_t half = chunk_bytes_ / 2;
      chunk_bytes_ = half > cfg_.chunk_min_bytes ? half : cfg_.chunk_min_bytes;
      g_chunk_->set(static_cast<std::int64_t>(chunk_bytes_));
      c_chunk_shrinks_->inc();
      record(at, Action::Kind::kChunkShrink, -1, chunk_bytes_);
      if (acts_.apply_chunk_bytes) acts_.apply_chunk_bytes(chunk_bytes_);
    } else {
      return;  // ladder exhausted; keep the streak, no cooldown restart
    }
    violate_streak_ = 0;
    last_cluster_action_ = at;
    return;
  }

  if (healthy_streak_ >= cfg_.recover_windows) {
    // Unwind in reverse: regrow the chunk before releasing admission, so
    // freed capacity serves full-size updates before new load arrives.
    if (cfg_.chunk_max_bytes > 0 && chunk_bytes_ < cfg_.chunk_max_bytes) {
      const std::uint64_t twice = chunk_bytes_ * 2;
      chunk_bytes_ = twice < cfg_.chunk_max_bytes ? twice : cfg_.chunk_max_bytes;
      g_chunk_->set(static_cast<std::int64_t>(chunk_bytes_));
      c_chunk_grows_->inc();
      record(at, Action::Kind::kChunkGrow, -1, chunk_bytes_);
      if (acts_.apply_chunk_bytes) acts_.apply_chunk_bytes(chunk_bytes_);
    } else if (admit_permille_ < 1000) {
      const std::uint32_t step = cfg_.throttle_step_permille;
      admit_permille_ =
          admit_permille_ + step < 1000 ? admit_permille_ + step : 1000;
      g_admit_->set(static_cast<std::int64_t>(admit_permille_));
      c_releases_->inc();
      record(at, Action::Kind::kRelease, -1, admit_permille_);
      if (acts_.admission != nullptr) {
        acts_.admission->set_admit_permille(admit_permille_);
      }
    } else {
      return;  // fully recovered; nothing to unwind
    }
    healthy_streak_ = 0;
    last_cluster_action_ = at;
  }
}

}  // namespace sv::control
