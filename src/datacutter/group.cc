#include "datacutter/group.h"

#include <set>
#include <stdexcept>

namespace sv::dc {

FilterGroup& FilterGroup::add_filter(
    std::string name, std::function<std::unique_ptr<Filter>()> make,
    std::vector<std::size_t> placement) {
  filters_.push_back(
      FilterSpec{std::move(name), std::move(make), std::move(placement)});
  return *this;
}

FilterGroup& FilterGroup::add_stream(std::string from, std::string to,
                                     SchedPolicy policy) {
  streams_.push_back(StreamSpec{std::move(from), std::move(to), policy});
  return *this;
}

const FilterSpec& FilterGroup::filter(const std::string& name) const {
  for (const auto& f : filters_) {
    if (f.name == name) return f;
  }
  throw std::invalid_argument("FilterGroup: no filter named '" + name + "'");
}

bool FilterGroup::has_filter(const std::string& name) const {
  for (const auto& f : filters_) {
    if (f.name == name) return true;
  }
  return false;
}

std::vector<std::size_t> FilterGroup::outputs_of(
    const std::string& name) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].from == name) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> FilterGroup::inputs_of(
    const std::string& name) const {
  std::vector<std::size_t> in;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].to == name) in.push_back(i);
  }
  return in;
}

void FilterGroup::validate() const {
  std::set<std::string> names;
  for (const auto& f : filters_) {
    if (!names.insert(f.name).second) {
      throw std::invalid_argument("FilterGroup: duplicate filter '" + f.name +
                                  "'");
    }
    if (f.placement.empty()) {
      throw std::invalid_argument("FilterGroup: filter '" + f.name +
                                  "' has no transparent copies");
    }
    if (!f.make) {
      throw std::invalid_argument("FilterGroup: filter '" + f.name +
                                  "' has no factory");
    }
  }
  for (const auto& s : streams_) {
    if (names.count(s.from) == 0) {
      throw std::invalid_argument("FilterGroup: stream source '" + s.from +
                                  "' does not exist");
    }
    if (names.count(s.to) == 0) {
      throw std::invalid_argument("FilterGroup: stream sink '" + s.to +
                                  "' does not exist");
    }
    if (s.from == s.to) {
      throw std::invalid_argument("FilterGroup: self-stream on '" + s.from +
                                  "'");
    }
  }
}

}  // namespace sv::dc
