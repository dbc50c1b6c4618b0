#include "harness/series.h"

#include <cmath>
#include <limits>
#include <ostream>
#include <set>

namespace sv::harness {

double Series::y_at(double x) const {
  for (const auto& [px, py] : points_) {
    if (std::abs(px - x) < 1e-9) return py;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

Series& Figure::add_series(std::string name) {
  series_.emplace_back(std::move(name));
  return series_.back();
}

Table Figure::to_table(int precision) const {
  std::vector<std::string> headers{x_label_};
  for (const auto& s : series_) headers.push_back(s.name());
  Table t(std::move(headers));

  // Union of x values, in first-appearance order per series, then sorted.
  std::set<double> xs;
  for (const auto& s : series_) {
    for (std::size_t i = 0; i < s.size(); ++i) xs.insert(s.x(i));
  }
  for (double x : xs) {
    std::vector<std::string> row;
    row.push_back(Table::num(x, 2));
    for (const auto& s : series_) {
      const double y = s.y_at(x);
      row.push_back(std::isnan(y) ? "-" : Table::num(y, precision));
    }
    t.add_row(std::move(row));
  }
  return t;
}

void Figure::print(std::ostream& os, int precision) const {
  os << "== " << title_ << " ==\n";
  os << "   y: " << y_label_ << "\n";
  to_table(precision).print(os);
  os << "\n";
}

}  // namespace sv::harness
