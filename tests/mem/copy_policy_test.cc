// CopyPolicy contracts (DESIGN.md §14): each policy kind charges exactly
// its decision-table row — eager copies bill the copy ledger, pin policies
// bill registrations, the static default bills nothing — and the
// registration-cost scale knob scales only pin/unpin work.
#include "mem/copy_policy.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/hub.h"

namespace sv::mem {
namespace {

TEST(CopyPolicyTest, NameParseRoundTrip) {
  for (auto kind :
       {CopyPolicyKind::kStaticPool, CopyPolicyKind::kEagerCopy,
        CopyPolicyKind::kRegisterOnFly, CopyPolicyKind::kRegCache}) {
    CopyPolicyKind parsed = CopyPolicyKind::kStaticPool;
    ASSERT_TRUE(parse_copy_policy(copy_policy_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  CopyPolicyKind out = CopyPolicyKind::kEagerCopy;
  EXPECT_FALSE(parse_copy_policy("bounce", &out));
  EXPECT_EQ(out, CopyPolicyKind::kEagerCopy);  // untouched on failure
}

TEST(CopyPolicyTest, StaticPoolChargesNothing) {
  obs::Hub hub;
  CopyPolicy policy(&hub, 0, CopyPolicyConfig{});
  const auto v = policy.acquire(SimTime::zero(), 1, 65536);
  EXPECT_EQ(v.cpu_cost, SimTime::zero());
  EXPECT_EQ(v.copied_bytes, 0u);
  EXPECT_EQ(v.registered_bytes, 0u);
  EXPECT_FALSE(v.needs_release);
  EXPECT_EQ(hub.registry.counter_value("mem.copies"), 0u);
  EXPECT_EQ(hub.registry.counter_value("mem.registrations"), 0u);
}

TEST(CopyPolicyTest, EagerCopyBillsCopyLedgerAndLinearCost) {
  obs::Hub hub;
  CopyPolicyConfig cfg;
  cfg.kind = CopyPolicyKind::kEagerCopy;
  CopyPolicy policy(&hub, 0, cfg);
  const std::uint64_t bytes = 4096;
  const auto v = policy.acquire(SimTime::zero(), 1, bytes);
  EXPECT_EQ(v.cpu_cost, kCopyFixed + kCopyPerByte.for_bytes(bytes));
  EXPECT_EQ(v.copied_bytes, bytes);
  EXPECT_FALSE(v.needs_release);
  EXPECT_EQ(hub.registry.counter_value("mem.copies"), 1u);
  EXPECT_EQ(hub.registry.counter_value("mem.copy_bytes"), bytes);
  EXPECT_EQ(hub.registry.counter_value(
                "mem.copies{at=policy.stage_copy}"),
            1u);
  // No pinning on the eager path, and release() is a no-op.
  EXPECT_EQ(hub.registry.counter_value("mem.registrations"), 0u);
  EXPECT_EQ(policy.release(SimTime::zero(), 1, bytes), SimTime::zero());
}

TEST(CopyPolicyTest, RegisterOnFlyPinsThenUnpins) {
  obs::Hub hub;
  CopyPolicyConfig cfg;
  cfg.kind = CopyPolicyKind::kRegisterOnFly;
  CopyPolicy policy(&hub, 0, cfg);
  const std::uint64_t bytes = 65536;
  const auto v = policy.acquire(SimTime::zero(), 1, bytes);
  EXPECT_EQ(v.cpu_cost, kPinFixed + kPinPerByte.for_bytes(bytes));
  EXPECT_EQ(v.registered_bytes, bytes);
  EXPECT_EQ(v.copied_bytes, 0u);
  EXPECT_TRUE(v.needs_release);
  EXPECT_EQ(hub.registry.counter_value("mem.registrations"), 1u);
  EXPECT_EQ(hub.registry.counter_value("mem.registered_bytes"), bytes);

  EXPECT_EQ(policy.release(SimTime::zero(), 1, bytes), kUnpinFixed);
  EXPECT_EQ(hub.registry.counter_value("mem.deregistrations"), 1u);
  EXPECT_EQ(hub.registry.counter_value("mem.deregistered_bytes"), bytes);
  // Zero copies: the whole point of pinning in place.
  EXPECT_EQ(hub.registry.counter_value("mem.copies"), 0u);
}

TEST(CopyPolicyTest, RegCostScaleScalesPinAndUnpinOnly) {
  obs::Hub hub;
  CopyPolicyConfig cfg;
  cfg.kind = CopyPolicyKind::kRegisterOnFly;
  cfg.reg_cost_scale_pct = 400;
  CopyPolicy policy(&hub, 0, cfg);
  const std::uint64_t bytes = 1024;
  const auto v = policy.acquire(SimTime::zero(), 1, bytes);
  const SimTime base = kPinFixed + kPinPerByte.for_bytes(bytes);
  EXPECT_EQ(v.cpu_cost.ns(), base.ns() * 4);
  EXPECT_EQ(policy.release(SimTime::zero(), 1, bytes).ns(),
            kUnpinFixed.ns() * 4);
}

TEST(CopyPolicyTest, RegCacheHitSkipsPinMissPays) {
  obs::Hub hub;
  CopyPolicyConfig cfg;
  cfg.kind = CopyPolicyKind::kRegCache;
  cfg.cache.capacity_regions = 4;
  CopyPolicy policy(&hub, 0, cfg);
  const std::uint64_t bytes = 65536;

  const auto miss = policy.acquire(SimTime::zero(), 9, bytes);
  EXPECT_EQ(miss.cpu_cost,
            kCacheLookup + kPinFixed + kPinPerByte.for_bytes(bytes));
  EXPECT_EQ(miss.registered_bytes, bytes);
  EXPECT_FALSE(miss.needs_release);  // stays resident

  const auto hit = policy.acquire(SimTime::zero(), 9, bytes);
  EXPECT_EQ(hit.cpu_cost, kCacheLookup);
  EXPECT_EQ(hit.registered_bytes, 0u);
  EXPECT_EQ(hub.registry.counter_value("mem.registrations"), 1u);
  // The region stays resident: it was never deregistered.
  EXPECT_EQ(hub.registry.counter_value("mem.deregistrations"), 0u);
}

TEST(CopyPolicyTest, RegCacheAnonymousBufferPinsPerMessage) {
  obs::Hub hub;
  CopyPolicyConfig cfg;
  cfg.kind = CopyPolicyKind::kRegCache;
  cfg.cache.capacity_regions = 4;
  CopyPolicy policy(&hub, 0, cfg);
  // buffer id 0 = anonymous one-shot: never cached, so two sends don't
  // alias each other into a bogus hit.
  for (int i = 0; i < 2; ++i) {
    const auto v = policy.acquire(SimTime::zero(), 0, 4096);
    EXPECT_TRUE(v.needs_release);
    EXPECT_EQ(v.registered_bytes, 4096u);
    EXPECT_EQ(policy.release(SimTime::zero(), 0, 4096), kUnpinFixed);
  }
  // Nothing stays resident: each registration was undone.
  EXPECT_EQ(hub.registry.counter_value("mem.registrations"), 2u);
  EXPECT_EQ(hub.registry.counter_value("mem.deregistrations"), 2u);
}

TEST(CopyPolicyTest, DecisionCounterTracksPolicyKind) {
  obs::Hub hub;
  CopyPolicyConfig cfg;
  cfg.kind = CopyPolicyKind::kEagerCopy;
  CopyPolicy policy(&hub, 0, cfg);
  for (int i = 0; i < 3; ++i) {
    (void)policy.acquire(SimTime::zero(), 1, 128);
  }
  EXPECT_EQ(hub.registry.counter_value(
                "mem.policy_decisions{policy=eager_copy}"),
            3u);
}

}  // namespace
}  // namespace sv::mem
