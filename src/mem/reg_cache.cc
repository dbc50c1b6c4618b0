#include "mem/reg_cache.h"

#include <utility>

#include "mem/ledger.h"
#include "obs/hub.h"

namespace sv::mem {

RegCache::RegCache(obs::Hub* hub, int node, Config config)
    : hub_(hub), node_(node), config_(std::move(config)) {
  if (hub_ != nullptr) {
    obs::Registry& reg = hub_->registry;
    const std::string dim = "{cache=" + config_.label + "}";
    c_hits_ = &reg.counter("mem.regcache_hits" + dim);
    c_misses_ = &reg.counter("mem.regcache_misses" + dim);
    c_evictions_ = &reg.counter("mem.regcache_evictions" + dim);
    g_pinned_bytes_ = &reg.gauge("mem.regcache_pinned_bytes" + dim);
    g_resident_ = &reg.gauge("mem.regcache_resident" + dim);
  }
}

RegCache::Lookup RegCache::lookup(SimTime now, std::uint64_t buffer_id,
                                  std::uint64_t bytes) {
  Lookup out;
  auto it = index_.find(buffer_id);
  if (it != index_.end() && it->second->bytes >= bytes) {
    // Hit: refresh recency, pin nothing.
    out.hit = true;
    lru_.splice(lru_.begin(), lru_, it->second);
    if (c_hits_ != nullptr) c_hits_->inc();
    return out;
  }

  // Miss. A resident-but-too-small entry is unpinned first so the region
  // is re-registered at the larger extent (counts as an eviction).
  if (it != index_.end()) {
    out.evicted_ids.push_back(it->second->id);
    out.evicted_bytes += it->second->bytes;
    pinned_bytes_ -= it->second->bytes;
    charge_deregistration(hub_, now, node_, it->second->bytes);
    if (c_evictions_ != nullptr) c_evictions_->inc();
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (c_misses_ != nullptr) c_misses_->inc();

  if (config_.capacity_regions == 0) {
    // Degenerate cache: pin for this message only. The caller unpins via
    // CopyPolicy::release(), so nothing becomes resident here.
    out.registered_bytes = bytes;
    charge_registration(hub_, now, node_, bytes);
    update_gauges();
    return out;
  }

  while (lru_.size() >= config_.capacity_regions) evict_lru(now, &out);

  lru_.push_front(Entry{buffer_id, bytes});
  index_[buffer_id] = lru_.begin();
  pinned_bytes_ += bytes;
  out.registered_bytes = bytes;
  charge_registration(hub_, now, node_, bytes);
  update_gauges();
  return out;
}

std::vector<std::uint64_t> RegCache::mru_order() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(lru_.size());
  for (const Entry& e : lru_) ids.push_back(e.id);
  return ids;
}

void RegCache::evict_lru(SimTime now, Lookup* out) {
  const Entry& victim = lru_.back();
  out->evicted_ids.push_back(victim.id);
  out->evicted_bytes += victim.bytes;
  pinned_bytes_ -= victim.bytes;
  charge_deregistration(hub_, now, node_, victim.bytes);
  if (c_evictions_ != nullptr) c_evictions_->inc();
  index_.erase(victim.id);
  lru_.pop_back();
}

void RegCache::update_gauges() {
  if (g_pinned_bytes_ != nullptr) {
    g_pinned_bytes_->set(static_cast<std::int64_t>(pinned_bytes_));
  }
  if (g_resident_ != nullptr) {
    g_resident_->set(static_cast<std::int64_t>(lru_.size()));
  }
}

}  // namespace sv::mem
