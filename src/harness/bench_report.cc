#include "harness/bench_report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "obs/metrics.h"

namespace sv::harness {
namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// Writes `,\n  "key": {"name": json, ...}` one entry per line.
void write_object(std::ostream& out, const char* key, const Entries& entries) {
  out << ",\n  \"" << key << "\": {";
  const char* sep = "";
  for (const auto& [name, json] : entries) {
    out << sep << "\n    ";
    obs::write_json_string(out, name);
    out << ": " << json;
    sep = ",";
  }
  out << "\n  }";
}

}  // namespace

BenchReport::Row& BenchReport::Row::exact(const std::string& field,
                                          const std::string& v) {
  std::ostringstream json;
  obs::write_json_string(json, v);
  return put(field, "exact", json.str());
}

BenchReport::Row& BenchReport::Row::ratio(const std::string& field,
                                          double per_sec) {
  return put(field, "ratio", fixed(per_sec, 0));
}

BenchReport::Row& BenchReport::Row::info(const std::string& field, double v,
                                         int decimals) {
  return put(field, "info", fixed(v, decimals));
}

BenchReport::Row& BenchReport::Row::put(const std::string& field,
                                        const char* kind, std::string json) {
  values_.push_back({field, kind, std::move(json)});
  return *this;
}

BenchReport::BenchReport(std::string bench, bool quick)
    : bench_(std::move(bench)), quick_(quick) {}

BenchReport::Row& BenchReport::row(const std::string& name, bool in_quick) {
  // The comparator keys rows by name; a duplicate would hide one of them.
  SV_ASSERT(std::none_of(rows_.begin(), rows_.end(),
                         [&](const Row& r) { return r.name_ == name; }),
            "BenchReport: duplicate row '" + name + "'");
  Row& r = rows_.emplace_back();
  r.name_ = name;
  r.in_quick_ = in_quick;
  return r;
}

void BenchReport::check(const std::string& name, bool holds) {
  checks_.emplace_back(name, holds ? "true" : "false");
}

void BenchReport::write(const std::string& path) const {
  // Field kinds in first-written order; a field keeps one kind in every row.
  Entries fields;
  for (const Row& r : rows_) {
    for (const Row::Value& v : r.values_) {
      const std::string kind = std::string("\"") + v.kind + '"';
      const auto it =
          std::find_if(fields.begin(), fields.end(),
                       [&](const auto& f) { return f.first == v.field; });
      if (it == fields.end()) {
        fields.emplace_back(v.field, kind);
      } else {
        SV_ASSERT(it->second == kind,
                  "BenchReport: field '" + v.field + "' has two kinds");
      }
    }
  }

  std::ofstream out(path);
  if (!out) throw std::runtime_error("BenchReport: cannot write " + path);
  out << "{\n  \"bench\": ";
  obs::write_json_string(out, bench_);
  out << ",\n  \"quick\": " << (quick_ ? "true" : "false");
  write_object(out, "fields", fields);
  write_object(out, "checks", checks_);
  out << ",\n  \"runs\": [";
  const char* sep = "";
  for (const Row& r : rows_) {
    out << sep << "\n    {\"name\": ";
    obs::write_json_string(out, r.name_);
    out << ", \"quick\": " << (r.in_quick_ ? "true" : "false");
    for (const Row::Value& v : r.values_) {
      out << ", ";
      obs::write_json_string(out, v.field);
      out << ": " << v.json;
    }
    out << '}';
    sep = ",";
  }
  out << "\n  ]\n}\n";
  out.close();
  if (!out) throw std::runtime_error("BenchReport: failed writing " + path);
}

}  // namespace sv::harness
