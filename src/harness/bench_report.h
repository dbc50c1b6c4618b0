// Bench report: the one JSON schema of every gated BENCH_*.json
// (DESIGN.md §16), gated by tools/bench_compare.py with no per-bench code.
//
// A report is named rows plus named boolean checks (the bench's
// machine-independent invariants). The setter that writes a field declares
// its kind: `exact` values depend only on config and seed and must equal
// the baseline; `ratio` values are host throughput, gated at a floor times
// the baseline; `info` values are recorded only. A row's `in_quick` marks
// it as one a --quick run also produces.
#pragma once

#include <chrono>
#include <concepts>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace sv::harness {

class BenchReport {
 public:
  class Row {
   public:
    template <std::integral T>
    Row& exact(const std::string& field, T v) {
      if constexpr (std::same_as<T, bool>) {
        return put(field, "exact", v ? "true" : "false");
      } else {
        return put(field, "exact", std::to_string(v));
      }
    }
    Row& exact(const std::string& field, const std::string& v);
    /// Host throughput (per second), written to the unit.
    Row& ratio(const std::string& field, double per_sec);
    Row& info(const std::string& field, double v, int decimals);

   private:
    friend class BenchReport;
    struct Value {
      std::string field;
      const char* kind;
      std::string json;
    };
    Row& put(const std::string& field, const char* kind, std::string json);

    std::string name_;
    bool in_quick_ = false;
    std::vector<Value> values_;
  };

  BenchReport(std::string bench, bool quick);

  /// Appends a row; `in_quick` says whether a --quick run produces it too.
  Row& row(const std::string& name, bool in_quick);
  /// Records a machine-independent invariant; the gate requires it true.
  void check(const std::string& name, bool holds);
  /// Writes the report as JSON; throws std::runtime_error when `path`
  /// cannot be written.
  void write(const std::string& path) const;

 private:
  std::string bench_;
  bool quick_;
  std::vector<std::pair<std::string, std::string>> checks_;  // name, JSON
  std::deque<Row> rows_;  // a deque keeps returned Row references valid
};

/// Runs `fn` and returns its wall time in seconds. Host throughput is the
/// one bench measurement that reads a clock, and only src/harness may
/// (svlint SV004).
template <typename Fn>
double wall_seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  std::forward<Fn>(fn)();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace sv::harness
