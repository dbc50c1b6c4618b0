// svlint CLI. Scans C++ sources under a repository root with the
// token-level rule engine and exits nonzero if any finding is not
// suppressed inline (svlint:allow).
//
//   svlint --root <repo> [--verbose] [--list-rules] [--json FILE]
//          [--check-manifest] [paths...]
//
// Paths are directories or files relative to --root; the default scan set
// is "src bench examples tools" (the tool scans itself). Run from CTest as
// `svlint_src`/`svlint_manifest` and from CI.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "include_graph.h"
#include "svlint.h"

namespace fs = std::filesystem;

namespace {

bool has_cxx_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hh" || ext == ".hpp" || ext == ".cc" ||
         ext == ".cpp" || ext == ".cxx";
}

std::string to_rel(const fs::path& root, const fs::path& p) {
  return fs::relative(p, root).generic_string();
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Options {
  fs::path root = fs::current_path();
  std::vector<std::string> targets;
  bool verbose = false;
  std::string json_path;
  bool check_manifest = false;
};

int usage(int code) {
  (code == 0 ? std::cout : std::cerr)
      << "usage: svlint [--root DIR] [--verbose] [--list-rules] "
         "[--json FILE] [--check-manifest] [paths...]\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const auto need_arg = [&](int& i) -> const char* {
    if (++i >= argc) {
      std::cerr << "svlint: " << argv[i - 1] << " needs an argument\n";
      return nullptr;
    }
    return argv[i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      const char* v = need_arg(i);
      if (v == nullptr) return 2;
      opt.root = fs::path(v);
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--json") {
      const char* v = need_arg(i);
      if (v == nullptr) return 2;
      opt.json_path = v;
    } else if (arg == "--check-manifest") {
      opt.check_manifest = true;
    } else if (arg == "--list-rules") {
      for (const auto& r : sv::lint::rules()) {
        std::cout << r.id << "  " << r.summary << "\n";
      }
      std::cout << "layering DAG: " << sv::lint::layering_description()
                << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "svlint: unknown option " << arg << "\n";
      return usage(2);
    } else {
      opt.targets.push_back(arg);
    }
  }
  if (opt.targets.empty()) {
    opt.targets = {"src", "bench", "examples", "tools"};
  }

  // Expand targets to a sorted, de-duplicated file list so output is
  // stable.
  std::vector<std::string> files;
  for (const std::string& t : opt.targets) {
    const fs::path p = opt.root / t;
    if (fs::is_directory(p)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (entry.is_regular_file() && has_cxx_extension(entry.path())) {
          files.push_back(to_rel(opt.root, entry.path()));
        }
      }
    } else if (fs::is_regular_file(p)) {
      files.push_back(to_rel(opt.root, p));
    } else {
      std::cerr << "svlint: no such file or directory: " << p.string()
                << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  const sv::lint::ProjectContext ctx = sv::lint::load_project(opt.root);

  // Lex each file once, for the rules and for the metric families the
  // manifest check collects.
  std::vector<sv::lint::Finding> all;
  std::set<std::string> created;
  for (const std::string& rel : files) {
    const sv::lint::LexedFile lx = sv::lint::lex(read_file(opt.root / rel));
    for (auto& f : sv::lint::scan_lexed(rel, lx, &ctx)) {
      all.push_back(std::move(f));
    }
    if (opt.check_manifest) {
      const auto fams = sv::lint::collect_metric_families(lx);
      created.insert(fams.begin(), fams.end());
    }
  }

  // The manifest must also be free of orphans: every declared family has to
  // be created somewhere in the scan set, or the declaration is dead and
  // dashboards silently chart nothing.
  if (opt.check_manifest) {
    if (!ctx.manifest_loaded) {
      std::cerr << "svlint: --check-manifest but src/obs/metrics_manifest"
                   ".txt is missing\n";
      return 2;
    }
    for (const auto& [family, line] : ctx.metric_manifest) {
      if (created.count(family) == 0) {
        all.push_back({"src/obs/metrics_manifest.txt", line, "SV012",
                       "orphaned manifest entry '" + family +
                           "': no .counter/.gauge/.histogram call in the "
                           "scan set creates it; delete the entry or wire "
                           "the metric up",
                       family, false});
      }
    }
  }

  std::size_t failing = 0, suppressed = 0;
  for (const auto& f : all) {
    if (f.suppressed) {
      ++suppressed;
      if (opt.verbose) {
        std::cout << f.rel_path << ":" << f.line << ": " << f.rule
                  << " (suppressed): " << f.message << "\n";
      }
      continue;
    }
    ++failing;
    std::cout << f.rel_path << ":" << f.line << ": " << f.rule << ": "
              << f.message << "\n";
  }

  if (!opt.json_path.empty()) {
    std::ofstream js(opt.json_path);
    if (!js) {
      std::cerr << "svlint: cannot write " << opt.json_path << "\n";
      return 2;
    }
    sv::lint::write_findings_json(js, all);
  }

  std::cout << "svlint: " << files.size() << " files scanned, " << failing
            << " finding(s), " << suppressed << " suppressed\n";
  return failing == 0 ? 0 : 1;
}
