#include "net/cost_model.h"

#include <algorithm>

namespace sv::net {
namespace {

SimTime max3(SimTime a, SimTime b, SimTime c) {
  return std::max(a, std::max(b, c));
}

}  // namespace

CostModel::CostModel(CalibrationProfile profile)
    : profile_(std::move(profile)) {}

std::uint64_t CostModel::segments(std::uint64_t n) const {
  if (n == 0) return 0;
  const std::uint64_t seg = profile_.segment_bytes;
  return (n + seg - 1) / seg;
}

SimTime CostModel::sender_time(std::uint64_t n) const {
  return profile_.send_fixed +
         profile_.send_per_seg * static_cast<std::int64_t>(segments(n)) +
         profile_.send_per_byte.for_bytes(n);
}

SimTime CostModel::wire_time(std::uint64_t n) const {
  return profile_.wire_per_seg * static_cast<std::int64_t>(segments(n)) +
         profile_.wire_per_byte.for_bytes(n);
}

SimTime CostModel::recv_time(std::uint64_t n) const {
  return profile_.recv_fixed +
         profile_.recv_per_seg * static_cast<std::int64_t>(segments(n)) +
         profile_.recv_per_byte.for_bytes(n);
}

SimTime CostModel::one_way(std::uint64_t n) const {
  const auto nseg = static_cast<std::int64_t>(segments(n));
  if (nseg == 0) {
    return profile_.send_fixed + profile_.propagation + profile_.recv_fixed;
  }
  const std::uint64_t c = std::min<std::uint64_t>(n, profile_.segment_bytes);
  const SimTime s =
      profile_.send_per_seg + profile_.send_per_byte.for_bytes(c);
  const SimTime w = profile_.wire_per_seg + profile_.wire_per_byte.for_bytes(c);
  const SimTime r = profile_.recv_per_seg + profile_.recv_per_byte.for_bytes(c);
  // First segment crosses all three stages; subsequent segments arrive at
  // the bottleneck-stage cadence.
  return profile_.send_fixed + profile_.recv_fixed + profile_.propagation +
         s + w + r + (nseg - 1) * max3(s, w, r);
}

SimTime CostModel::round_trip(std::uint64_t n) const {
  return one_way(n) * 2;
}

SimTime CostModel::pingpong_latency(std::uint64_t n) const {
  return one_way(n);
}

SimTime CostModel::stream_cycle(std::uint64_t n) const {
  const SimTime sender = sender_time(n);
  const SimTime wire = wire_time(n);
  const SimTime recv = recv_time(n);
  return max3(sender, wire, recv);
}

double CostModel::stream_bandwidth_mbps(std::uint64_t n) const {
  if (n == 0) return 0.0;
  return throughput_mbps(n, stream_cycle(n));
}

std::uint64_t CostModel::min_block_for_bandwidth(double mbps,
                                                 std::uint64_t limit) const {
  if (stream_bandwidth_mbps(limit) < mbps) return limit;
  std::uint64_t lo = 1, hi = limit;
  // Bandwidth is monotone non-decreasing in message size for this model
  // (fixed costs amortize; per-byte costs are constant).
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (stream_bandwidth_mbps(mid) >= mbps) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::uint64_t CostModel::max_block_for_latency(SimTime bound) const {
  if (one_way(1) > bound) return 0;
  std::uint64_t lo = 1, hi = 1;
  while (one_way(hi) <= bound && hi < (1ULL << 40)) hi *= 2;
  // Invariant: one_way(lo) <= bound < one_way(hi).
  while (lo + 1 < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (one_way(mid) <= bound) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint64_t CostModel::pipelining_block(PerByteCost compute,
                                          std::uint64_t limit) const {
  // Find n where one_way(n) == compute.for_bytes(n). Transfer has a fixed
  // head start (one_way(0) > 0), so if compute's slope never catches up we
  // return limit.
  if (one_way(limit) > compute.for_bytes(limit)) return limit;
  std::uint64_t lo = 1, hi = limit;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (compute.for_bytes(mid) >= one_way(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace sv::net
