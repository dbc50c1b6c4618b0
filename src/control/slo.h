// The SLO control plane (DESIGN.md §15).
//
// The paper's Figs 7/8 guarantee per-client update rate and latency
// *statically* — pick DR chunk size and replica placement offline, then
// hope. This module closes the loop at run time: a Controller subscribes
// to the live snapshot stream (obs/snapshot.h), watches per-node windowed
// update-latency histograms, and enforces a declarative latency SLO
// through three deterministic actuators:
//
//   admission    AdmissionControl: per-query-class token buckets at the
//                open-loop generator. Throttling sheds the sheddable
//                classes first — graceful degradation instead of
//                open-loop queue collapse.
//   chunk size   the paper's DR knob made adaptive: an actuator callback
//                resizes the DataCutter/workload chunk bytes online
//                (shrink under violation, regrow on recovery).
//   replicas     node demotion: traffic shifts away from a degraded node
//                via the workload's fanout tables and the updates queued
//                on the node's mux lanes, to it and from it, are shed; a
//                probation timer promotes it back.
//
// Determinism rules (the reason replays stay bit-identical):
//   * every decision reads only registry values at sim-time publish
//     points — never wall clock, never sampling;
//   * hysteresis bands + consecutive-window streaks + cooldowns are all
//     integer/sim-time arithmetic;
//   * actuators are invoked inside the snapshot publish event, so their
//     effects are ordinary scheduled state changes;
//   * every action appends to an ordered action log and emits `slo.*`
//     counters and trace instants, so two runs can be diffed decision by
//     decision.
//
// Only this module may invoke the actuators (svlint SV014): the harness
// *installs* callbacks and *queries* AdmissionControl, but mutation
// authority stays here, keeping the control loop auditable.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "control/token_bucket.h"
#include "obs/hub.h"
#include "obs/snapshot.h"

namespace sv::control {

/// Declarative targets the controller enforces.
struct SloTargets {
  /// Ceiling on windowed p99 end-to-end update latency.
  SimTime p99_update_latency = SimTime::milliseconds(5);
};

struct ControllerConfig {
  SloTargets targets{};

  /// Hysteresis band, as percentages of the target: the cluster is
  /// "violating" above band_high_pct% and "healthy" below band_low_pct%;
  /// between the bands the controller holds state (no oscillation).
  int band_high_pct = 100;
  int band_low_pct = 70;
  /// Consecutive violating (resp. healthy) windows required before an
  /// actuation.
  int violate_windows = 2;
  int recover_windows = 4;
  /// Minimum sim time between successive cluster-level actuations.
  SimTime cooldown = SimTime::milliseconds(10);
  /// Windows with fewer samples than this carry no signal (neither
  /// violating nor healthy).
  std::uint64_t min_window_samples = 8;

  /// Admission actuator: admit fraction moves by this much per step, in
  /// per-mille, never below min_admit_permille. 1000 = everything.
  std::uint32_t throttle_step_permille = 250;
  std::uint32_t min_admit_permille = 100;

  /// Chunk actuator bounds (bytes); chunk halves toward min under
  /// violation and doubles toward max on recovery. max == 0 disables.
  std::uint64_t chunk_min_bytes = 0;
  std::uint64_t chunk_max_bytes = 0;

  /// Demotion actuator: a node whose windowed p99 exceeds
  /// demote_latency_pct% of target for demote_windows consecutive windows
  /// is demoted (at most max_demoted at once); it is promoted back after
  /// demote_hold of probation. demote_windows == 0 disables.
  int demote_latency_pct = 200;
  int demote_windows = 2;
  int max_demoted = 1;
  SimTime demote_hold = SimTime::milliseconds(40);
};

/// Per-query-class token-bucket admission gate. The workload *queries* it
/// (admit() per update); only the Controller re-rates it (SV014).
class AdmissionControl {
 public:
  struct ClassSpec {
    std::string name = "default";
    /// Token refill per simulated second at full admission (size this at
    /// or above the class's expected offered rate, with headroom).
    std::uint64_t rate_per_sec = 1000;
    std::uint64_t burst = 64;
    /// Non-sheddable classes bypass the bucket entirely (interactive
    /// traffic the SLO protects).
    bool sheddable = true;
  };

  explicit AdmissionControl(std::vector<ClassSpec> specs);

  /// One token per update. Always true for non-sheddable classes and at
  /// full admission (1000 per-mille).
  bool admit(std::size_t cls, SimTime now);

  /// Controller actuator: rescales every sheddable class's refill rate to
  /// permille/1000 of its spec rate.
  void set_admit_permille(std::uint32_t permille);

  [[nodiscard]] std::uint32_t admit_permille() const { return permille_; }
  [[nodiscard]] std::size_t class_count() const { return classes_.size(); }
  [[nodiscard]] const ClassSpec& spec(std::size_t cls) const {
    return classes_[cls].spec;
  }

 private:
  struct ClassState {
    ClassSpec spec;
    TokenBucket bucket;
  };
  std::vector<ClassState> classes_;
  std::uint32_t permille_ = 1000;
};

/// The actuator bundle the harness installs. Invoking any of these outside
/// src/control is an SV014 violation — the controller is the only
/// mutation authority.
struct Actuators {
  /// Admission gate to re-rate (may be null: actuator disabled).
  AdmissionControl* admission = nullptr;
  /// Resize the workload/DataCutter chunk size to `bytes`.
  std::function<void(std::uint64_t bytes)> apply_chunk_bytes;
  /// Shift traffic away from `node` and shed its queued mux lanes.
  std::function<void(int node)> apply_demotion;
  /// End `node`'s probation; traffic may return.
  std::function<void(int node)> apply_promotion;
};

/// Closed-loop SLO controller: a SnapshotSink making deterministic
/// decisions at every publish.
class Controller final : public obs::SnapshotSink {
 public:
  struct Action {
    enum class Kind {
      kThrottle,
      kRelease,
      kChunkShrink,
      kChunkGrow,
      kDemote,
      kPromote,
    };
    SimTime at{};
    Kind kind{};
    int node = -1;            ///< demote/promote only
    std::uint64_t value = 0;  ///< admit per-mille or chunk bytes
  };

  Controller(obs::Hub* hub, ControllerConfig cfg, Actuators actuators);

  /// Subscribes a node's `slo.update_latency_ns{node=nodeN}` window.
  /// Binding is lazy — the histogram may not exist until traffic starts.
  void watch_node(int node);

  void on_snapshot(const obs::Snapshot& snap) override;

  [[nodiscard]] const std::vector<Action>& actions() const {
    return actions_;
  }
  /// Canonical text: one `<ns> <kind> <node> <value>` line per action, in
  /// decision order. Determinism tests diff this byte-for-byte.
  [[nodiscard]] std::string action_log() const;

  [[nodiscard]] std::uint32_t admit_permille() const {
    return admit_permille_;
  }
  [[nodiscard]] std::uint64_t chunk_bytes() const { return chunk_bytes_; }
  [[nodiscard]] bool is_demoted(int node) const;
  [[nodiscard]] int demoted_count() const;
  /// Windowed cluster p99 from the most recent snapshot (0 = no samples).
  [[nodiscard]] std::int64_t last_cluster_p99_ns() const {
    return last_p99_ns_;
  }

  [[nodiscard]] static const char* kind_name(Action::Kind kind);

 private:
  struct NodeState {
    int node = 0;
    obs::HistogramWindow latency;
    std::uint64_t lifetime_samples = 0;
    int bad_windows = 0;
    bool demoted = false;
    SimTime demoted_at{};
  };

  void record(SimTime at, Action::Kind kind, int node, std::uint64_t value);
  void step_demotions(SimTime at, std::uint64_t cluster_count,
                      bool load_active);
  void step_cluster(SimTime at, const obs::HistogramWindow& cluster);

  obs::Hub* hub_;
  ControllerConfig cfg_;
  Actuators acts_;
  std::vector<NodeState> nodes_;
  std::vector<Action> actions_;
  /// Window over `slo.offered` (lazy-bound; absent = always active).
  obs::CounterWindow offered_;

  int violate_streak_ = 0;
  int healthy_streak_ = 0;
  std::uint32_t admit_permille_ = 1000;
  std::uint64_t chunk_bytes_ = 0;
  SimTime last_cluster_action_;
  std::int64_t last_p99_ns_ = 0;

  obs::Counter* c_windows_;
  obs::Counter* c_actions_;
  obs::Counter* c_throttles_;
  obs::Counter* c_releases_;
  obs::Counter* c_chunk_shrinks_;
  obs::Counter* c_chunk_grows_;
  obs::Counter* c_demotions_;
  obs::Counter* c_promotions_;
  obs::Gauge* g_admit_;
  obs::Gauge* g_chunk_;
  obs::Gauge* g_p99_;
};

}  // namespace sv::control
