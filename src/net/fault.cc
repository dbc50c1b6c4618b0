#include "net/fault.h"

#include <algorithm>

namespace sv::net {

bool FaultPlan::enabled() const {
  if (all_links.enabled()) return true;
  if (!nodes.empty()) return true;
  return std::any_of(links.begin(), links.end(),
                     [](const auto& kv) { return kv.second.enabled(); });
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed,
                             obs::Registry* registry)
    : plan_(std::move(plan)),
      seed_(seed),
      owned_registry_(registry == nullptr ? std::make_unique<obs::Registry>()
                                          : nullptr),
      registry_(registry == nullptr ? owned_registry_.get() : registry),
      frames_seen_(&registry_->counter("fault.frames_seen")),
      frames_dropped_(&registry_->counter("fault.frames_dropped")),
      frames_delayed_(&registry_->counter("fault.frames_delayed")) {}

FaultInjector::LinkState& FaultInjector::link_state(int src, int dst) {
  const std::pair<int, int> key{src, dst};
  auto it = link_states_.find(key);
  if (it == link_states_.end()) {
    // Derive the stream purely from (seed, src, dst) so the first-touch
    // order of links cannot change any link's decision sequence.
    std::uint64_t mix =
        seed_ ^ ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                  << 32) |
                 static_cast<std::uint32_t>(dst));
    const std::uint64_t link_seed = splitmix64_next(mix);
    it = link_states_.emplace(key, LinkState(link_seed)).first;
    const std::string link = "{link=" + std::to_string(src) + "->" +
                             std::to_string(dst) + "}";
    it->second.seen = &registry_->counter("fault.frames_seen" + link);
    it->second.dropped = &registry_->counter("fault.frames_dropped" + link);
    it->second.delayed = &registry_->counter("fault.frames_delayed" + link);
  }
  return it->second;
}

FaultDecision FaultInjector::on_frame(int src, int dst) {
  const LinkFault& spec = plan_.link(src, dst);
  FaultDecision d;
  if (!spec.enabled()) return d;

  LinkState& st = link_state(src, dst);
  const std::uint64_t frame = st.next_frame++;
  frames_seen_->inc();
  st.seen->inc();

  if (std::find(spec.drop_frames.begin(), spec.drop_frames.end(), frame) !=
      spec.drop_frames.end()) {
    d.drop = true;
  } else if (spec.loss > 0.0) {
    const double p = st.in_burst ? spec.burst_continue : spec.loss;
    d.drop = st.rng.bernoulli(p);
  }
  st.in_burst = d.drop && spec.burst_continue > 0.0;
  if (d.drop) {
    frames_dropped_->inc();
    st.dropped->inc();
    return d;
  }

  if (spec.max_jitter > SimTime::zero()) {
    d.extra_delay =
        SimTime(st.rng.uniform_int(0, spec.max_jitter.ns()));
    if (d.extra_delay > SimTime::zero()) {
      frames_delayed_->inc();
      st.delayed->inc();
    }
  }
  return d;
}

std::int64_t FaultInjector::compute_factor(int node, SimTime now) const {
  std::int64_t factor = 1;
  for (const NodeFault& nf : plan_.nodes) {
    if (nf.node != node || nf.is_stall()) continue;
    if (now >= nf.start && now < nf.start + nf.duration) {
      factor *= nf.slow_factor;
    }
  }
  return factor;
}

}  // namespace sv::net
