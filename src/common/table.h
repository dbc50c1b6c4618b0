// Plain-text table rendering for benchmark output.
//
// Benches print the same rows/series the paper's figures plot; Table
// renders them as aligned text.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace sv {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 2);
  static std::string num(std::int64_t v);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const { return headers_.size(); }
  [[nodiscard]] const std::string& cell(std::size_t r, std::size_t c) const {
    return rows_[r][c];
  }

  /// Renders as an aligned text table.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sv
