// Pin-down registration cache (DESIGN.md §14).
//
// The classic VIA-era result: memory registration (pinning) costs tens of
// microseconds, so high-performance socket layers keep a bounded cache of
// registered regions and only pin on miss. RegCache models exactly that —
// an LRU map from buffer-region id to its pinned extent, with a hard
// capacity in regions. A hit costs nothing in registered bytes; a miss
// pins the region (charged to the ledger as a registration) and, at
// capacity, evicts the least-recently-used region first (charged as a
// deregistration). Capacity 0 degenerates to register-on-the-fly: every
// lookup is a miss that immediately unpins, which is the identity the
// policy tests pin down.
//
// All state is deterministic: eviction order depends only on the sequence
// of lookup() calls, never on wall clock or hashing order.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"

namespace sv::obs {
struct Hub;
class Counter;
class Gauge;
}  // namespace sv::obs

namespace sv::mem {

class RegCache {
 public:
  struct Config {
    /// Maximum number of simultaneously pinned regions. 0 means every
    /// lookup misses and the pinned region is evicted by the *next*
    /// lookup — i.e. register-on-the-fly with one region in flight.
    std::size_t capacity_regions = 64;
    /// Label for the {cache=...} counter dimension.
    std::string label = "regcache";
  };

  /// Result of one lookup: what got pinned and what got thrown out.
  struct Lookup {
    bool hit = false;
    /// Bytes newly registered by this lookup (0 on a hit).
    std::uint64_t registered_bytes = 0;
    /// Total bytes deregistered by evictions this lookup caused.
    std::uint64_t evicted_bytes = 0;
    /// Region ids evicted, in eviction (LRU-first) order.
    std::vector<std::uint64_t> evicted_ids;
  };

  RegCache(obs::Hub* hub, int node, Config config);

  /// Looks up region `buffer_id` of `bytes` bytes, pinning it on miss and
  /// evicting LRU entries to stay within capacity. A resident entry only
  /// hits if its pinned extent covers `bytes`; a larger request re-pins
  /// (miss) at the new size. Ledger charging (registration /
  /// deregistration counters) happens here; the *time* cost is the
  /// caller's to charge — see CopyPolicy.
  Lookup lookup(SimTime now, std::uint64_t buffer_id, std::uint64_t bytes);

  [[nodiscard]] bool contains(std::uint64_t buffer_id) const {
    return index_.count(buffer_id) != 0;
  }
  [[nodiscard]] std::size_t resident() const { return lru_.size(); }
  [[nodiscard]] std::uint64_t pinned_bytes() const { return pinned_bytes_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Resident region ids, most-recently-used first (test helper: the LRU
  /// order is part of the determinism contract).
  [[nodiscard]] std::vector<std::uint64_t> mru_order() const;

 private:
  struct Entry {
    std::uint64_t id = 0;
    std::uint64_t bytes = 0;
  };

  void evict_lru(SimTime now, Lookup* out);
  void update_gauges();

  obs::Hub* hub_ = nullptr;
  int node_ = 0;
  Config config_;
  std::uint64_t pinned_bytes_ = 0;

  // MRU at front; index maps region id -> its node in the list.
  std::list<Entry> lru_;
  std::map<std::uint64_t, std::list<Entry>::iterator> index_;

  obs::Counter* c_hits_ = nullptr;
  obs::Counter* c_misses_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Gauge* g_pinned_bytes_ = nullptr;
  obs::Gauge* g_resident_ = nullptr;
};

}  // namespace sv::mem
