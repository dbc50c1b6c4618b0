// Figure series collection and paper-style printing.
#pragma once

#include <iosfwd>
#include <deque>
#include <string>
#include <vector>

#include "common/table.h"

namespace sv::harness {

/// One plotted line: (x, y) points with a legend name.
class Series {
 public:
  explicit Series(std::string name) : name_(std::move(name)) {}

  void add(double x, double y) { points_.push_back({x, y}); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] double x(std::size_t i) const { return points_[i].first; }
  [[nodiscard]] double y(std::size_t i) const { return points_[i].second; }
  /// y at the given x, or NaN when absent.
  [[nodiscard]] double y_at(double x) const;

 private:
  std::string name_;
  std::vector<std::pair<double, double>> points_;
};

/// A figure: several series over a shared x axis, rendered as one table
/// (x column + one column per series), matching the paper's plots.
class Figure {
 public:
  Figure(std::string title, std::string x_label, std::string y_label)
      : title_(std::move(title)),
        x_label_(std::move(x_label)),
        y_label_(std::move(y_label)) {}

  Series& add_series(std::string name);
  [[nodiscard]] const std::deque<Series>& series() const { return series_; }

  /// Prints the title, axis labels, and the combined table. `precision`
  /// controls y formatting; missing points print "-".
  void print(std::ostream& os, int precision = 2) const;

 private:
  [[nodiscard]] Table to_table(int precision) const;

  std::string title_;
  std::string x_label_;
  std::string y_label_;
  // deque: stable references across add_series() calls
  std::deque<Series> series_;
};

}  // namespace sv::harness
