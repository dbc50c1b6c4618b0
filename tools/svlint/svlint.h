// svlint: a static-analysis engine for the socketvia source tree.
//
// The simulator's contract (DESIGN.md §8) is that every seeded experiment is
// bit-identical across runs and platforms, that payload bytes only move
// through audited copies (§10), and that every statistic lives in the obs
// registry (§9). Those contracts are easy to break silently during a
// refactor; svlint mechanically enforces them before a change reaches
// ctest.
//
// v2 is token-level rather than line-regex: one lexer (lexer.h) strips
// comments/strings/raw strings exactly once, rules consume token streams
// (so multi-line constructs match), and include_graph.h gives rules the
// architecture view — the declared layering DAG (SV009).
// It is still not a compiler plugin: no preprocessing, no name lookup.
// False positives have a suppression escape hatch:
//
//   do_hazardous_thing();  // svlint:allow(SV002): justification here
//
// (on the offending line or the line directly above it). That is the only
// suppression: every other finding fails the build.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace sv::lint {

struct Finding {
  std::string rel_path;  // path relative to the scan root, '/'-separated
  int line = 0;          // 1-based
  std::string rule;      // e.g. "SV001"
  std::string message;
  std::string snippet;       // the offending source line, trimmed
  bool suppressed = false;   // an svlint:allow(...) covers it
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// The rule table, in id order.
const std::vector<RuleInfo>& rules();

/// Cross-file state the per-file rules can consult. Only SV012 (metric
/// manifest) needs it today; rules degrade gracefully without one.
struct ProjectContext {
  bool manifest_loaded = false;
  /// Declared metric family -> 1-based line in the manifest file.
  std::map<std::string, int> metric_manifest;
};

/// Loads src/obs/metrics_manifest.txt under `root` (missing file leaves
/// manifest_loaded false, disabling SV012).
ProjectContext load_project(const std::filesystem::path& root);

/// Scans one file's contents. `rel_path` must be the '/'-separated path
/// relative to the repository root; most rules are path-scoped (SV001 only
/// fires in ordered-output directories, SV009 only under src/, ...).
std::vector<Finding> scan_source(const std::string& rel_path,
                                 const std::string& text,
                                 const ProjectContext* ctx = nullptr);

/// Same, over an already-lexed file (the CLI lexes each file once for both
/// the rules and the manifest check).
std::vector<Finding> scan_lexed(const std::string& rel_path,
                                const LexedFile& lx,
                                const ProjectContext* ctx = nullptr);

/// Reads `root / rel_path` and scans it. Throws std::runtime_error if the
/// file cannot be read.
std::vector<Finding> scan_file(const std::filesystem::path& root,
                               const std::string& rel_path,
                               const ProjectContext* ctx = nullptr);

/// Metric families (name up to any '{') created in this file via
/// .counter("...")/.gauge("...")/.histogram("...") — the forward half of
/// the manifest check; the orphan half compares the union against the
/// manifest.
std::set<std::string> collect_metric_families(const LexedFile& lx);

/// Machine-readable findings: a JSON array of {file, line, rule, message,
/// snippet, suppressed}, sorted by (file, line, rule).
void write_findings_json(std::ostream& os,
                         const std::vector<Finding>& findings);

}  // namespace sv::lint
