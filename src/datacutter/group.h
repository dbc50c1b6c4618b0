// Filter group description: filters, transparent-copy placement, streams.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "datacutter/filter.h"

namespace sv::dc {

/// Buffer distribution policy between transparent consumer copies.
enum class SchedPolicy { kRoundRobin, kDemandDriven };

struct FilterSpec {
  std::string name;
  std::function<std::unique_ptr<Filter>()> make;
  /// One entry per transparent copy: the node index it is placed on.
  std::vector<std::size_t> placement;
};

struct StreamSpec {
  std::string from;
  std::string to;
  SchedPolicy policy = SchedPolicy::kDemandDriven;
};

class FilterGroup {
 public:
  /// Adds a filter with its transparent-copy placement.
  FilterGroup& add_filter(std::string name,
                          std::function<std::unique_ptr<Filter>()> make,
                          std::vector<std::size_t> placement);

  /// Adds a logical stream from filter `from` to filter `to`.
  FilterGroup& add_stream(std::string from, std::string to,
                          SchedPolicy policy = SchedPolicy::kDemandDriven);

  [[nodiscard]] const std::vector<FilterSpec>& filters() const {
    return filters_;
  }
  [[nodiscard]] const std::vector<StreamSpec>& streams() const {
    return streams_;
  }
  [[nodiscard]] const FilterSpec& filter(const std::string& name) const;
  [[nodiscard]] bool has_filter(const std::string& name) const;

  /// Output/input stream indices for a filter, in add order (these are the
  /// indices filter code passes to read()/write()).
  [[nodiscard]] std::vector<std::size_t> outputs_of(
      const std::string& name) const;
  [[nodiscard]] std::vector<std::size_t> inputs_of(
      const std::string& name) const;

  /// Throws std::invalid_argument on dangling stream endpoints, duplicate
  /// filter names, or empty placements.
  void validate() const;

 private:
  std::vector<FilterSpec> filters_;
  std::vector<StreamSpec> streams_;
};

}  // namespace sv::dc
