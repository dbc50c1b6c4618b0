// RegCache contracts (DESIGN.md §14): LRU eviction order is a pure
// function of the access sequence (deterministic across runs and seeds),
// capacity 0 degenerates to register-on-the-fly, and cache hits charge
// zero registration bytes.
#include "mem/reg_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mem/copy_policy.h"
#include "obs/hub.h"

namespace sv::mem {
namespace {

RegCache make_cache(obs::Hub* hub, std::size_t capacity) {
  RegCache::Config cfg;
  cfg.capacity_regions = capacity;
  return RegCache(hub, /*node=*/0, cfg);
}

TEST(RegCacheTest, HitRefreshesRecencyAndPinsNothing) {
  obs::Hub hub;
  RegCache cache = make_cache(&hub, 3);
  const SimTime t = SimTime::zero();
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto r = cache.lookup(t, id, 4096);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.registered_bytes, 4096u);
  }
  // Touch 1: it becomes MRU, so inserting 4 must evict 2 (the LRU).
  const auto hit = cache.lookup(t, 1, 4096);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.registered_bytes, 0u);
  EXPECT_TRUE(hit.evicted_ids.empty());

  const auto miss = cache.lookup(t, 4, 4096);
  EXPECT_FALSE(miss.hit);
  ASSERT_EQ(miss.evicted_ids.size(), 1u);
  EXPECT_EQ(miss.evicted_ids[0], 2u);
  EXPECT_EQ((std::vector<std::uint64_t>{4, 1, 3}), cache.mru_order());

  EXPECT_EQ(hub.registry.counter_value("mem.regcache_hits{cache=regcache}"),
            1u);
  EXPECT_EQ(hub.registry.counter_value("mem.regcache_misses{cache=regcache}"),
            4u);
  EXPECT_EQ(
      hub.registry.counter_value("mem.regcache_evictions{cache=regcache}"),
      1u);
}

TEST(RegCacheTest, HitChargesZeroRegistrationBytes) {
  obs::Hub hub;
  RegCache cache = make_cache(&hub, 8);
  const SimTime t = SimTime::zero();
  (void)cache.lookup(t, 7, 65536);
  const std::uint64_t after_miss =
      hub.registry.counter_value("mem.registered_bytes");
  EXPECT_EQ(after_miss, 65536u);
  for (int i = 0; i < 10; ++i) {
    const auto r = cache.lookup(t, 7, 65536);
    EXPECT_TRUE(r.hit);
  }
  EXPECT_EQ(hub.registry.counter_value("mem.registered_bytes"), after_miss);
  EXPECT_EQ(hub.registry.counter_value("mem.registrations"), 1u);
}

TEST(RegCacheTest, SmallerRequestHitsLargerResidentEntry) {
  obs::Hub hub;
  RegCache cache = make_cache(&hub, 4);
  const SimTime t = SimTime::zero();
  (void)cache.lookup(t, 5, 65536);
  EXPECT_TRUE(cache.lookup(t, 5, 1024).hit);
  // A larger request than the pinned extent must re-pin (miss + evict).
  const auto r = cache.lookup(t, 5, 131072);
  EXPECT_FALSE(r.hit);
  ASSERT_EQ(r.evicted_ids.size(), 1u);
  EXPECT_EQ(r.evicted_ids[0], 5u);
  EXPECT_EQ(r.registered_bytes, 131072u);
  EXPECT_EQ(cache.pinned_bytes(), 131072u);
}

TEST(RegCacheTest, EvictionOrderIsDeterministicAcrossSeeds) {
  // Whatever the (seeded) access sequence, two replays of it produce
  // bit-identical eviction sequences and final MRU order: eviction order
  // is a function of accesses alone, never of hashing or wall clock.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng gen(seed);
    std::vector<std::uint64_t> accesses;
    for (int i = 0; i < 400; ++i) {
      accesses.push_back(1 + gen.next_below(32));
    }
    std::vector<std::vector<std::uint64_t>> evictions(2);
    std::vector<std::vector<std::uint64_t>> final_order(2);
    for (int run = 0; run < 2; ++run) {
      obs::Hub hub;
      RegCache cache = make_cache(&hub, 8);
      for (const std::uint64_t id : accesses) {
        const auto r = cache.lookup(SimTime::zero(), id, 4096);
        for (const std::uint64_t e : r.evicted_ids) {
          evictions[static_cast<std::size_t>(run)].push_back(e);
        }
      }
      final_order[static_cast<std::size_t>(run)] = cache.mru_order();
    }
    EXPECT_EQ(evictions[0], evictions[1]) << "seed " << seed;
    EXPECT_EQ(final_order[0], final_order[1]) << "seed " << seed;
    EXPECT_FALSE(evictions[0].empty()) << "seed " << seed;
  }
}

TEST(RegCacheTest, CapacityZeroDegeneratesToRegisterOnTheFly) {
  // Same acquire/release sequence through a capacity-0 kRegCache policy
  // and a kRegisterOnFly policy: identical ledger counters, and identical
  // cost except the cache's per-lookup overhead.
  const std::uint64_t kBytes = 8192;
  const int kMsgs = 16;

  obs::Hub hub_cache;
  CopyPolicyConfig cache_cfg;
  cache_cfg.kind = CopyPolicyKind::kRegCache;
  cache_cfg.cache.capacity_regions = 0;
  CopyPolicy cache_policy(&hub_cache, 0, cache_cfg);

  obs::Hub hub_fly;
  CopyPolicyConfig fly_cfg;
  fly_cfg.kind = CopyPolicyKind::kRegisterOnFly;
  CopyPolicy fly_policy(&hub_fly, 0, fly_cfg);

  SimTime cache_cost = SimTime::zero();
  SimTime fly_cost = SimTime::zero();
  for (int i = 0; i < kMsgs; ++i) {
    const std::uint64_t id = 100 + static_cast<std::uint64_t>(i % 4);
    const auto vc = cache_policy.acquire(SimTime::zero(), id, kBytes);
    const auto vf = fly_policy.acquire(SimTime::zero(), id, kBytes);
    EXPECT_TRUE(vc.needs_release);
    EXPECT_TRUE(vf.needs_release);
    EXPECT_EQ(vc.registered_bytes, vf.registered_bytes);
    cache_cost = cache_cost + vc.cpu_cost +
                 cache_policy.release(SimTime::zero(), id, kBytes);
    fly_cost = fly_cost + vf.cpu_cost +
               fly_policy.release(SimTime::zero(), id, kBytes);
  }
  for (const char* name :
       {"mem.registrations", "mem.registered_bytes", "mem.deregistrations",
        "mem.deregistered_bytes"}) {
    EXPECT_EQ(hub_cache.registry.counter_value(name),
              hub_fly.registry.counter_value(name))
        << name;
  }
  // No hits ever, no residency: every lookup re-pins.
  EXPECT_EQ(hub_cache.registry.counter_value("mem.registrations"),
            static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(cache_cost.ns(),
            fly_cost.ns() + kMsgs * kCacheLookup.ns());
}

}  // namespace
}  // namespace sv::mem
