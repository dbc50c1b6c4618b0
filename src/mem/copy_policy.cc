#include "mem/copy_policy.h"

#include <utility>

#include "mem/ledger.h"
#include "obs/hub.h"

namespace sv::mem {

std::string_view copy_policy_name(CopyPolicyKind kind) {
  switch (kind) {
    case CopyPolicyKind::kStaticPool:
      return "static_pool";
    case CopyPolicyKind::kEagerCopy:
      return "eager_copy";
    case CopyPolicyKind::kRegisterOnFly:
      return "register_on_fly";
    case CopyPolicyKind::kRegCache:
      return "regcache";
  }
  return "static_pool";
}

bool parse_copy_policy(std::string_view text, CopyPolicyKind* out) {
  if (text == "static_pool") {
    *out = CopyPolicyKind::kStaticPool;
  } else if (text == "eager_copy") {
    *out = CopyPolicyKind::kEagerCopy;
  } else if (text == "register_on_fly") {
    *out = CopyPolicyKind::kRegisterOnFly;
  } else if (text == "regcache") {
    *out = CopyPolicyKind::kRegCache;
  } else {
    return false;
  }
  return true;
}

CopyPolicy::CopyPolicy(obs::Hub* hub, int node, CopyPolicyConfig config)
    : hub_(hub), node_(node), config_(std::move(config)) {
  if (config_.kind == CopyPolicyKind::kRegCache) {
    cache_ = std::make_unique<RegCache>(hub_, node_, config_.cache);
  }
  if (hub_ != nullptr) {
    const std::string dim =
        "{policy=" + std::string(copy_policy_name(config_.kind)) + "}";
    c_decisions_ = &hub_->registry.counter("mem.policy_decisions" + dim);
  }
}

CopyVerdict CopyPolicy::acquire(SimTime now, std::uint64_t buffer_id,
                                std::uint64_t bytes) {
  CopyVerdict v;
  v.action = config_.kind;
  if (c_decisions_ != nullptr) c_decisions_->inc();

  switch (config_.kind) {
    case CopyPolicyKind::kStaticPool:
      // Legacy: the transport's own preregistered pool already covers the
      // message; nothing extra to charge.
      break;

    case CopyPolicyKind::kEagerCopy:
      v.cpu_cost = kCopyFixed + kCopyPerByte.for_bytes(bytes);
      v.copied_bytes = bytes;
      charge_copy(hub_, now, node_, "policy.stage_copy", bytes);
      break;

    case CopyPolicyKind::kRegisterOnFly:
      v.cpu_cost = pin_cost(bytes);
      v.registered_bytes = bytes;
      v.needs_release = true;
      charge_registration(hub_, now, node_, bytes);
      break;

    case CopyPolicyKind::kRegCache: {
      if (buffer_id == 0) {
        // Anonymous one-shot buffer: caching it would alias every other
        // anonymous message onto one cache line. Pin per-message instead.
        v.cpu_cost = kCacheLookup + pin_cost(bytes);
        v.registered_bytes = bytes;
        v.needs_release = true;
        charge_registration(hub_, now, node_, bytes);
        break;
      }
      v.cpu_cost = kCacheLookup;
      RegCache::Lookup look = cache_->lookup(now, buffer_id, bytes);
      if (!look.hit) {
        v.cpu_cost = v.cpu_cost + pin_cost(bytes);
        v.registered_bytes = look.registered_bytes;
        // Evictions bill their unpin time here too: the miss path stalls
        // until the victim regions are deregistered.
        for (std::size_t i = 0; i < look.evicted_ids.size(); ++i) {
          v.cpu_cost = v.cpu_cost + scaled(kUnpinFixed);
        }
        // Capacity 0 pins per-message; the caller must unpin after send.
        v.needs_release = cache_->config().capacity_regions == 0;
      }
      break;
    }
  }
  return v;
}

SimTime CopyPolicy::release(SimTime now, std::uint64_t buffer_id,
                            std::uint64_t bytes) {
  switch (config_.kind) {
    case CopyPolicyKind::kRegisterOnFly:
      charge_deregistration(hub_, now, node_, bytes);
      return scaled(kUnpinFixed);
    case CopyPolicyKind::kRegCache:
      // Per-message pins (anonymous buffer, or a capacity-0 cache) are
      // unpinned here; resident entries stay pinned until evicted.
      if (buffer_id == 0 || cache_->config().capacity_regions == 0) {
        charge_deregistration(hub_, now, node_, bytes);
        return scaled(kUnpinFixed);
      }
      return SimTime::zero();
    case CopyPolicyKind::kStaticPool:
    case CopyPolicyKind::kEagerCopy:
      return SimTime::zero();
  }
  return SimTime::zero();
}

SimTime CopyPolicy::scaled(SimTime t) const {
  if (config_.reg_cost_scale_pct == 100) return t;
  return SimTime::nanoseconds(t.ns() * config_.reg_cost_scale_pct / 100);
}

SimTime CopyPolicy::pin_cost(std::uint64_t bytes) const {
  return scaled(kPinFixed + kPinPerByte.for_bytes(bytes));
}

}  // namespace sv::mem
