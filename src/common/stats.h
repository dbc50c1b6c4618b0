// Online and sample-based statistics used by the experiment harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace sv {

/// Welford online mean/variance over doubles.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< Sample variance (n-1).
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Retains samples for exact percentiles; convenient for latency series.
class Samples {
 public:
  void add(double x);
  void add(SimTime t) { add(static_cast<double>(t.ns())); }

  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] bool empty() const { return xs_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double stddev() const;
  /// Exact percentile by nearest-rank; p in [0,100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double sum() const;

  /// Interpret samples as integer nanoseconds.
  [[nodiscard]] SimTime mean_time() const {
    return SimTime(static_cast<std::int64_t>(mean()));
  }
  [[nodiscard]] SimTime percentile_time(double p) const {
    return SimTime(static_cast<std::int64_t>(percentile(p)));
  }

  [[nodiscard]] const std::vector<double>& raw() const { return xs_; }
  void clear() { xs_.clear(); sorted_ = true; }

 private:
  void ensure_sorted() const;

  std::vector<double> xs_;
  mutable bool sorted_ = true;
};

/// Fixed-bucket histogram (linear buckets) for distribution summaries.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double bucket_lo(std::size_t i) const;
  [[nodiscard]] double bucket_hi(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace sv
