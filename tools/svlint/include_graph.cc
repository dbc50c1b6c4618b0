#include "include_graph.h"

namespace sv::lint {
namespace {

// The declared layering DAG (DESIGN.md §11). Rank order is the build
// order: a module may include strictly lower ranks only. tcpstack and via
// share a rank — they are sibling transports and must not include each
// other.
struct ModuleRank {
  const char* module;
  int rank;
};
constexpr ModuleRank kLayering[] = {
    {"common", 0},     {"obs", 1},      {"control", 2}, {"sim", 3},
    {"mem", 4},        {"net", 5},      {"tcpstack", 6}, {"via", 6},
    {"sockets", 7},    {"datacutter", 8}, {"vizapp", 9}, {"harness", 10},
};

}  // namespace

int module_rank(const std::string& module) {
  for (const ModuleRank& m : kLayering) {
    if (module == m.module) return m.rank;
  }
  return -1;
}

std::string module_of(const std::string& rel_path) {
  const std::string prefix = "src/";
  if (rel_path.compare(0, prefix.size(), prefix) != 0) return {};
  const std::size_t slash = rel_path.find('/', prefix.size());
  if (slash == std::string::npos) return {};
  return rel_path.substr(prefix.size(), slash - prefix.size());
}

std::string layering_description() {
  std::string out;
  int prev_rank = -1;
  for (const ModuleRank& m : kLayering) {
    if (!out.empty()) out += m.rank == prev_rank ? " = " : " < ";
    out += m.module;
    prev_rank = m.rank;
  }
  return out;
}

}  // namespace sv::lint
