#include "obs/metrics.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace sv::obs {

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  SV_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()),
            "histogram bounds must be sorted ascending");
}

void Histogram::observe(std::int64_t v) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
  count_ += 1;
  sum_ += v;
}

Counter& Registry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<std::int64_t> bounds) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

const Counter* Registry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  const Counter* c = find_counter(name);
  return c == nullptr ? 0 : c->value();
}

std::uint64_t Registry::sum_counters(const std::string& prefix) const {
  std::uint64_t total = 0;
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    total += it->second->value();
  }
  return total;
}

// Metric names may contain '>', '{', '='; none need JSON escaping, but
// quote and backslash do for safety.
void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void Registry::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  const char* sep = "";
  for (const auto& [name, c] : counters_) {
    os << sep << "\n    ";
    write_json_string(os, name);
    os << ": " << c->value();
    sep = ",";
  }
  os << "\n  },\n  \"gauges\": {";
  sep = "";
  for (const auto& [name, g] : gauges_) {
    os << sep << "\n    ";
    write_json_string(os, name);
    os << ": {\"value\": " << g->value() << ", \"max\": " << g->max_value()
       << "}";
    sep = ",";
  }
  os << "\n  },\n  \"histograms\": {";
  sep = "";
  for (const auto& [name, h] : histograms_) {
    os << sep << "\n    ";
    write_json_string(os, name);
    os << ": {\"count\": " << h->count() << ", \"sum\": " << h->sum()
       << ", \"bounds\": [";
    const char* bsep = "";
    for (std::int64_t b : h->bounds()) {
      os << bsep << b;
      bsep = ", ";
    }
    os << "], \"buckets\": [";
    bsep = "";
    for (std::uint64_t b : h->buckets()) {
      os << bsep << b;
      bsep = ", ";
    }
    os << "]}";
    sep = ",";
  }
  os << "\n  }\n}\n";
}

std::string Registry::snapshot() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

std::vector<std::int64_t> Registry::time_bounds_ns() {
  return {1'000,       10'000,        100'000,        1'000'000,
          10'000'000,  100'000'000,   1'000'000'000};
}

std::vector<std::int64_t> Registry::size_bounds_bytes() {
  return {64,      256,       1'024,     4'096,      16'384,
          65'536,  262'144,   1'048'576, 4'194'304,  16'777'216};
}

}  // namespace sv::obs
