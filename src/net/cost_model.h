// Closed-form predictions of the staged transport model.
//
// The fabric (fabric.h) *executes* the stages as simulated processes with
// shared resources; CostModel computes what an uncontended transfer costs
// analytically. Applications use it for the paper's "DR" (data
// repartitioning) policy — choosing a block size from a target bandwidth or
// latency — and tests use it to cross-validate the executed fabric.
#pragma once

#include <cstdint>

#include "net/calibration.h"

namespace sv::net {

class CostModel {
 public:
  explicit CostModel(CalibrationProfile profile);

  [[nodiscard]] const CalibrationProfile& profile() const { return profile_; }

  /// Number of segments a message of n bytes occupies (>= 1; 0 for n == 0).
  [[nodiscard]] std::uint64_t segments(std::uint64_t n) const;

  /// Per-message stage totals.
  [[nodiscard]] SimTime sender_time(std::uint64_t n) const;
  [[nodiscard]] SimTime wire_time(std::uint64_t n) const;
  [[nodiscard]] SimTime recv_time(std::uint64_t n) const;

  /// Uncontended one-way delivery time of a single n-byte message,
  /// accounting for segment-level pipelining across the three stages.
  [[nodiscard]] SimTime one_way(std::uint64_t n) const;

  /// Round-trip time (symmetric paths), e.g. for ping-pong latency tests.
  [[nodiscard]] SimTime round_trip(std::uint64_t n) const;

  /// Steady-state per-message cycle when messages of n bytes stream
  /// back-to-back: the largest per-message stage total.
  [[nodiscard]] SimTime stream_cycle(std::uint64_t n) const;

  /// Streaming bandwidth in Mbps for back-to-back n-byte messages.
  [[nodiscard]] double stream_bandwidth_mbps(std::uint64_t n) const;

  /// Half-duplex ping-pong "latency" as micro-benchmarks report it: RTT/2.
  [[nodiscard]] SimTime pingpong_latency(std::uint64_t n) const;

  /// Smallest message size whose streaming bandwidth reaches `mbps`
  /// (the paper's U2-vs-U1 message size; Figure 2a). Returns 0 if even
  /// 1-byte messages suffice, or `limit` if unreachable below it.
  [[nodiscard]] std::uint64_t min_block_for_bandwidth(
      double mbps, std::uint64_t limit = 64 * 1024 * 1024) const;

  /// Largest message size whose uncontended one-way time stays within
  /// `bound` (the paper's latency-guarantee block choice). Returns 0 when
  /// even 1 byte misses the bound.
  [[nodiscard]] std::uint64_t max_block_for_latency(SimTime bound) const;

  /// Block size at which transfer time equals computation time
  /// (`compute` per byte) — the paper's "perfect pipelining" block
  /// (16 KB for TCP, 2 KB for SocketVIA at 18 ns/B). Returns `limit` when
  /// transfer is always faster than compute up to limit.
  [[nodiscard]] std::uint64_t pipelining_block(
      PerByteCost compute, std::uint64_t limit = 64 * 1024 * 1024) const;

 private:
  CalibrationProfile profile_;
};

}  // namespace sv::net
