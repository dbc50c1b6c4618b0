// The copy/registration ledger: every byte copy and memory registration in
// the modeled system flows through these two functions (DESIGN.md §10).
//
// Charging a copy is an *accounting* act, not a timing one: the calibrated
// per-byte costs in net/calibration.cc already embed the copy work the
// paper's hosts performed (e.g. kernel TCP's 9.0 ns/B user→kernel copy on
// send), so default runs stay inside the calibration band while the
// ledger makes the copies visible: `mem.copies` / `mem.copy_bytes`
// counters (aggregate and per-stage) plus a tracer instant per event.
// Experiments that want copy cost as an independent variable scale it
// explicitly (SocketFactory::set_copy_cost_scale_pct; see
// bench/ablation_copycost.cc) — the added delay is charged at the call
// site, which has process context; the ledger itself never touches
// simulated time.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/units.h"

namespace sv::obs {
class Counter;
struct Hub;
}  // namespace sv::obs

namespace sv::mem {

/// One copy stage's ledger entry, bound once: the `mem.copies` and
/// `mem.copy_bytes` counters, aggregate and `{at=<stage>}`, are created
/// (if new) and looked up on construction, so a charge does no lookups.
/// `stage` must outlive the binding.
class CopyCounters {
 public:
  CopyCounters(obs::Hub* hub, std::string_view stage);

  /// Records one payload-byte copy of `bytes` bytes on `node`. No
  /// simulated time is charged.
  void charge(SimTime now, int node, std::uint64_t bytes) const;

 private:
  obs::Hub* hub_;
  std::string_view stage_;
  obs::Counter* copies_;
  obs::Counter* stage_copies_;
  obs::Counter* bytes_;
  obs::Counter* stage_bytes_;
};

/// Records one payload-byte copy of `bytes` bytes at `stage` (e.g.
/// "tcp.user_to_kernel") on `node`, binding the stage's counters for this
/// one charge. No simulated time is charged.
void charge_copy(obs::Hub* hub, SimTime now, int node, std::string_view stage,
                 std::uint64_t bytes);

/// Records one memory registration (pinning) of `bytes` bytes on `node`.
/// The time cost of pinning is charged by the caller (via::Nic, or the
/// selective-copy policy layer — copy_policy.h).
void charge_registration(obs::Hub* hub, SimTime now, int node,
                         std::uint64_t bytes);

/// Records one memory deregistration (unpinning) of `bytes` bytes on
/// `node`: the other half of the pin-down trade-off. Charged by
/// register-on-the-fly completions and RegCache evictions; like
/// registration, the *time* cost stays with the caller.
void charge_deregistration(obs::Hub* hub, SimTime now, int node,
                           std::uint64_t bytes);

/// Total copies recorded in `hub` so far (aggregate counter; test helper).
[[nodiscard]] std::uint64_t copies_recorded(const obs::Hub& hub);

}  // namespace sv::mem
