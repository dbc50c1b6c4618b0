// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// This is the single home for every statistic the simulator keeps
// (DESIGN.md §9). Modules obtain a stable pointer to a metric once
// (`registry.counter("tcpstack.retx{conn=n0.tcp1}")`) and bump it on the
// hot path; `Registry::snapshot()` serialises everything as JSON with
// deterministic (lexicographic) ordering, so two runs of the same seeded
// experiment emit byte-identical snapshots.
//
// Naming convention is Prometheus-flavoured: `component.metric` optionally
// followed by `{label=value}`, e.g. `fault.frames_dropped{link=0->1}`.
// Unlike Prometheus, the full string is the key: the registry does not
// parse labels, it only sorts names.
//
// Determinism notes: metrics are owned via std::map (ordered, SV001-safe)
// and all values are integers — no floating point enters the snapshot, so
// the output is platform-stable and safe to diff in golden tests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sv::obs {

/// Monotonic integer count. Pointers returned by Registry::counter() are
/// stable for the registry's lifetime.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level (queue depth, bytes in flight). Tracks the running
/// maximum so a snapshot preserves the high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  void add(std::int64_t delta) { set(value_ + delta); }
  [[nodiscard]] std::int64_t value() const { return value_; }
  [[nodiscard]] std::int64_t max_value() const { return max_; }

  /// Returns the high-water mark, then re-arms it to the current level so
  /// the next window reports its own peak. Without the re-arm a windowed
  /// view would report the all-time maximum forever (the bug live
  /// snapshots exposed): one early burst would pin every later window's
  /// "peak" at the burst value.
  std::int64_t read_and_rearm_max() {
    const std::int64_t peak = max_;
    max_ = value_;
    return peak;
  }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Fixed-bound histogram: bucket i counts observations <= bounds[i]; one
/// extra overflow bucket counts the rest. Bounds are fixed at creation so
/// every run buckets identically.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] const std::vector<std::int64_t>& bounds() const {
    return bounds_;
  }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }

 private:
  std::vector<std::int64_t> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
};

/// Owns every metric by name. Lookup creates on first use; the returned
/// references remain valid for the registry's lifetime (node-based map).
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is honoured only on first creation of `name`.
  Histogram& histogram(const std::string& name,
                       std::vector<std::int64_t> bounds = time_bounds_ns());

  /// Read-only lookups (nullptr when absent) for tests and exporters.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Convenience: counter value, or 0 when the counter was never created.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  /// Sum of every counter whose name starts with `prefix` (aggregating
  /// labelled families, e.g. "fault.frames_dropped{").
  [[nodiscard]] std::uint64_t sum_counters(const std::string& prefix) const;

  /// Deterministic JSON: {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with names in lexicographic order and integer values only.
  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string snapshot() const;

  /// Decade buckets in nanoseconds: 1us, 10us, ... 1s (+ overflow).
  [[nodiscard]] static std::vector<std::int64_t> time_bounds_ns();
  /// Power-of-4 buckets in bytes: 64B ... 16MiB (+ overflow).
  [[nodiscard]] static std::vector<std::int64_t> size_bounds_bytes();

 private:
  // Ordered maps: snapshot iteration order is name-determined (SV001-safe)
  // and unique_ptr nodes keep metric addresses stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Writes `s` as a JSON string literal (quote and backslash escaped).
void write_json_string(std::ostream& os, const std::string& s);

}  // namespace sv::obs
