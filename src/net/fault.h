// Deterministic fault injection for the simulated fabric.
//
// The paper's measurements assume a loss-free LAN; this layer lets an
// experiment relax that assumption reproducibly. A FaultPlan describes
// per-link frame loss (independent or bursty), extra delay jitter, and
// scheduled node slowdown/stall windows. A FaultInjector turns the plan
// into concrete per-frame decisions using RNG streams derived purely from
// (experiment seed, src node, dst node), so decisions do not depend on the
// order in which links first carry traffic: the same (seed, plan) always
// yields the same drops at the same frames, and Engine::trace_digest() is
// bit-identical across runs.
//
// Consumers:
//   net::Pipe       - fast fabric: a dropped frame is re-sent internally
//                     after a fixed recovery pause (the fast model stays
//                     reliable and in-order; it models "transport after
//                     recovery").
//   tcpstack        - segments are actually lost; TCP's RTO / fast
//                     retransmit machinery recovers them.
//   net::Node       - compute() is scaled by any active slowdown window;
//                     full stalls additionally pin the node's resources
//                     (Cluster::install_faults).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace sv::net {

/// Fault behaviour of one directed link (src -> dst).
struct LinkFault {
  /// Probability a frame entering the wire is lost.
  double loss = 0.0;
  /// Once a frame is lost, probability each following frame is also lost
  /// (Gilbert-style burst loss). 0 = independent losses.
  double burst_continue = 0.0;
  /// Extra per-frame delay, uniform in [0, max_jitter].
  SimTime max_jitter = SimTime::zero();
  /// Explicit frame indices (0-based, per link, in wire order) to drop
  /// regardless of `loss` — for unit tests that need a precise loss.
  std::vector<std::uint64_t> drop_frames{};

  [[nodiscard]] bool enabled() const {
    return loss > 0.0 || max_jitter > SimTime::zero() || !drop_frames.empty();
  }
};

/// A scheduled degradation window for one node.
struct NodeFault {
  int node = 0;
  SimTime start = SimTime::zero();
  SimTime duration = SimTime::zero();
  /// 0 = full stall (the node's resources are held for the whole window);
  /// k > 1 = computations run k times slower during the window.
  std::int64_t slow_factor = 0;

  [[nodiscard]] bool is_stall() const { return slow_factor == 0; }
};

/// The complete fault schedule for an experiment. Value-semantic and
/// seed-free: all randomness comes from the seed handed to FaultInjector.
struct FaultPlan {
  /// Default fault behaviour for every link.
  LinkFault all_links{};
  /// Per-link overrides, keyed by (src node id, dst node id).
  std::map<std::pair<int, int>, LinkFault> links{};
  /// Node slowdown/stall windows.
  std::vector<NodeFault> nodes{};

  /// The no-fault plan (the repo's historical loss-free-LAN behaviour).
  [[nodiscard]] static FaultPlan none() { return FaultPlan{}; }
  /// Independent loss at probability `p` on every link.
  [[nodiscard]] static FaultPlan uniform_loss(double p) {
    FaultPlan plan;
    plan.all_links.loss = p;
    return plan;
  }

  /// The fault spec governing link (src, dst).
  [[nodiscard]] const LinkFault& link(int src, int dst) const {
    auto it = links.find({src, dst});
    return it == links.end() ? all_links : it->second;
  }

  [[nodiscard]] bool enabled() const;
};

/// Per-frame verdict from the injector.
struct FaultDecision {
  bool drop = false;
  /// Extra wire delay (jitter); zero when not delayed.
  SimTime extra_delay = SimTime::zero();
};

/// Turns a FaultPlan plus an experiment seed into deterministic per-frame
/// decisions. One injector is shared by a whole Cluster; link streams are
/// created on demand but their state depends only on (seed, src, dst).
class FaultInjector {
 public:
  /// `registry` receives the injector's counters (aggregate
  /// `fault.frames_*` plus per-link `fault.frames_*{link=s->d}`); pass the
  /// simulation's registry so drops/jitter show up in snapshots next to
  /// every other metric. When null the injector owns a private registry,
  /// keeping the accessors below working standalone.
  FaultInjector(FaultPlan plan, std::uint64_t seed,
                obs::Registry* registry = nullptr);

  /// Decides the fate of the next frame crossing link (src, dst).
  FaultDecision on_frame(int src, int dst);

  /// Multiplier for compute work on `node` at time `now` (1 when no
  /// slowdown window is active; stall windows are enforced by resource
  /// holds, not here).
  [[nodiscard]] std::int64_t compute_factor(int node, SimTime now) const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  /// Aggregate counters (forward to the registry; per-link breakdowns live
  /// under `fault.frames_*{link=s->d}` in snapshots).
  [[nodiscard]] std::uint64_t frames_seen() const {
    return frames_seen_->value();
  }
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_->value();
  }
  [[nodiscard]] std::uint64_t frames_delayed() const {
    return frames_delayed_->value();
  }
  [[nodiscard]] obs::Registry& registry() { return *registry_; }

 private:
  struct LinkState {
    Rng rng;
    std::uint64_t next_frame = 0;
    bool in_burst = false;
    // Per-link registry counters, bound when the link is first touched.
    obs::Counter* seen = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* delayed = nullptr;

    explicit LinkState(std::uint64_t link_seed) : rng(link_seed) {}
  };

  LinkState& link_state(int src, int dst);

  FaultPlan plan_;
  std::uint64_t seed_;
  std::unique_ptr<obs::Registry> owned_registry_;  // fallback when detached
  obs::Registry* registry_;
  // Ordered map keyed by node-id pairs: iteration order (never used for
  // decisions anyway) is value-determined, per the determinism contract.
  std::map<std::pair<int, int>, LinkState> link_states_;
  obs::Counter* frames_seen_;
  obs::Counter* frames_dropped_;
  obs::Counter* frames_delayed_;
};

}  // namespace sv::net
