// Selective-copy policy engine (DESIGN.md §14).
//
// The paper's transports hard-wire the copy decision: kernel TCP always
// copies through the socket buffer, VIA/RDMA always send from static
// preregistered pools. Libra-style selective copying makes that a *per
// message* choice instead. Every outbound message on a policy-mediated
// path asks CopyPolicy::acquire() how to make its payload
// transfer-ready, and the policy answers with one of:
//
//   kStaticPool      legacy behaviour — the transport's own preregistered
//                    pool, zero extra cost (the default; keeps every
//                    existing digest pin bit-identical)
//   kEagerCopy       copy the payload into a preregistered bounce buffer
//                    (cheap for small messages: fixed + per-byte copy)
//   kRegisterOnFly   pin the user buffer for this message, unpin after
//                    (cheap for large one-shot transfers: the pin cost
//                    amortises over the bytes, no copy at all)
//   kRegCache        consult a pin-down RegCache keyed by buffer id
//                    (cheap under reuse locality: hits skip the pin)
//
// The policy charges the *ledger* (copies / registrations /
// deregistrations) itself, because those are accounting facts; the
// returned cpu_cost is simulated host time the caller must burn in
// process context (sim->delay), because only the call site knows whose
// clock advances.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/units.h"
#include "mem/reg_cache.h"

namespace sv::obs {
struct Hub;
class Counter;
}  // namespace sv::obs

namespace sv::mem {

enum class CopyPolicyKind : std::uint8_t {
  kStaticPool = 0,
  kEagerCopy,
  kRegisterOnFly,
  kRegCache,
};

[[nodiscard]] std::string_view copy_policy_name(CopyPolicyKind kind);
/// Parses "static_pool" | "eager_copy" | "register_on_fly" | "regcache".
/// Returns false (leaving *out untouched) on anything else.
[[nodiscard]] bool parse_copy_policy(std::string_view text,
                                     CopyPolicyKind* out);

// Eager-copy cost model: one bounce-buffer copy per message. The per-byte
// cost matches the calibrated kernel-TCP user→kernel copy
// (net/calibration.cc) so "one copy" means the same thing everywhere.
inline constexpr SimTime kCopyFixed = SimTime::nanoseconds(250);
inline constexpr PerByteCost kCopyPerByte = PerByteCost::nanos_per_byte(9);

// Pin/unpin cost model: VIA-era registration is ~20 us of kernel work
// (via::Nic charges the same fixed cost for pool setup) plus a small
// per-byte page-table walk; unpinning is cheaper but not free.
inline constexpr SimTime kPinFixed = SimTime::microseconds(20);
inline constexpr PerByteCost kPinPerByte = PerByteCost::picos_per_byte(100);
inline constexpr SimTime kUnpinFixed = SimTime::microseconds(10);

// RegCache lookup overhead, hit or miss.
inline constexpr SimTime kCacheLookup = SimTime::nanoseconds(200);

struct CopyPolicyConfig {
  CopyPolicyKind kind = CopyPolicyKind::kStaticPool;

  /// RegCache shape.
  RegCache::Config cache{};

  // Scales pin/unpin costs (ablation knob): 100 = calibrated, 400 =
  // 4x-slower registration hardware.
  int reg_cost_scale_pct = 100;
};

/// What acquire() decided for one message.
struct CopyVerdict {
  CopyPolicyKind action = CopyPolicyKind::kStaticPool;
  /// Host time the caller must charge in process context before the
  /// payload is transfer-ready.
  SimTime cpu_cost = SimTime::zero();
  /// Bytes copied into a bounce buffer (eager only; already in ledger).
  std::uint64_t copied_bytes = 0;
  /// Bytes newly pinned (already in ledger).
  std::uint64_t registered_bytes = 0;
  /// True when the caller must call release() after the send completes
  /// (register-on-the-fly, and regcache with capacity 0).
  bool needs_release = false;
};

class CopyPolicy {
 public:
  CopyPolicy(obs::Hub* hub, int node, CopyPolicyConfig config);

  /// Decides how to make `bytes` bytes in region `buffer_id`
  /// transfer-ready. Charges the ledger; returns the time bill.
  CopyVerdict acquire(SimTime now, std::uint64_t buffer_id,
                      std::uint64_t bytes);

  /// Unpins a register-on-the-fly region after its send completes.
  /// Returns the unpin time the caller must charge. No-op (zero) unless
  /// the matching verdict had needs_release set.
  SimTime release(SimTime now, std::uint64_t buffer_id, std::uint64_t bytes);

  [[nodiscard]] const CopyPolicyConfig& config() const { return config_; }
  [[nodiscard]] CopyPolicyKind kind() const { return config_.kind; }

 private:
  [[nodiscard]] SimTime scaled(SimTime t) const;
  [[nodiscard]] SimTime pin_cost(std::uint64_t bytes) const;

  obs::Hub* hub_ = nullptr;
  int node_ = 0;
  CopyPolicyConfig config_;
  std::unique_ptr<RegCache> cache_;
  obs::Counter* c_decisions_ = nullptr;
};

}  // namespace sv::mem
