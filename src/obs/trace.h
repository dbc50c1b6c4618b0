// Structured event tracer: ring-buffered spans and instant events with
// sim-time timestamps.
//
// Two export forms (DESIGN.md §9):
//   * Chrome trace_event JSON ("X" complete spans / "i" instants) for
//     chrome://tracing or Perfetto, and
//   * a canonical deterministic text form — one line per event in record
//     order, integers only — which golden-trace tests diff byte-for-byte.
//
// Cost model: recording is passive. The tracer never schedules events,
// never reads wall clocks, and never perturbs simulated time, so enabling
// it cannot change sim results or Engine::trace_digest(). When disabled at
// runtime each call is one branch.
//
// Event names are interned as "category.name" strings; the ring buffer
// holds fixed-size PODs, and once full the oldest events are overwritten
// (dropped() reports how many).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace sv::obs {

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  /// Starts recording into a ring of `capacity` events (replaces any
  /// previously recorded events' eviction budget, keeps existing ones).
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable();
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records a completed span [start, end] attributed to `node`.
  void span(SimTime start, SimTime end, int node, std::string_view category,
            std::string_view name, std::uint64_t arg = 0) {
    if (enabled_) record(start, end - start, node, category, name,
                         /*instant=*/false, arg);
  }

  /// Records a point event at `ts` attributed to `node`.
  void instant(SimTime ts, int node, std::string_view category,
               std::string_view name, std::uint64_t arg = 0) {
    if (enabled_) record(ts, SimTime::zero(), node, category, name,
                         /*instant=*/true, arg);
  }

  /// Events currently held in the ring.
  [[nodiscard]] std::size_t size() const;
  /// Events evicted because the ring wrapped.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void clear();

  /// Chrome trace_event JSON (object form, {"traceEvents": [...]}).
  void write_chrome_json(std::ostream& os) const;
  /// Canonical text: header line then `<ts_ns> <dur_ns> n<node> <name> <arg>`
  /// per event in record order. Integers only; stable across platforms.
  void write_canonical(std::ostream& os) const;
  [[nodiscard]] std::string canonical() const;

 private:
  struct Event {
    std::int64_t ts_ns;
    std::int64_t dur_ns;
    std::int32_t node;
    std::uint32_t name_id;
    bool instant;
    std::uint64_t arg;
  };

  void record(SimTime ts, SimTime dur, int node, std::string_view category,
              std::string_view name, bool instant, std::uint64_t arg);
  std::uint32_t intern(std::string_view category, std::string_view name);
  /// Applies `fn` to events oldest-first (handles ring wraparound).
  template <typename Fn>
  void for_each(Fn&& fn) const;

  bool enabled_ = false;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t next_ = 0;  // ring write cursor once events_ is full
  std::uint64_t dropped_ = 0;
  std::vector<Event> events_;
  std::vector<std::string> names_;  // id -> "category.name"
  // Ordered map: interning order does not affect exports (ids resolve back
  // to strings), but keep it value-determined anyway per DESIGN.md §8.
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
};

}  // namespace sv::obs
