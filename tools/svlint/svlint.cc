#include "svlint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "include_graph.h"

namespace sv::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"SV001",
     "iteration over std::unordered_map/unordered_set in an ordered-output "
     "context (src/sim, src/net, src/datacutter, src/vizapp): element order "
     "is implementation-defined and varies across libstdc++ versions"},
    {"SV002",
     "call to rand()/srand(): unseeded process-global RNG; use sv::Rng "
     "(common/rng.h) so streams are seeded and splittable"},
    {"SV003",
     "std::random_device: reads OS entropy, different on every run; use a "
     "seeded sv::Rng"},
    {"SV004",
     "wall-clock read (std::chrono::{system,steady,high_resolution}_clock, "
     "gettimeofday, clock_gettime, time(nullptr)) outside src/harness and "
     "src/common/rng.cc: simulated code must only observe SimTime"},
    {"SV005",
     "pointer-keyed std::map/std::set (or std::less<T*>): iteration order "
     "follows allocation addresses, which differ across runs under ASLR"},
    {"SV006",
     "float/double accumulation of simulated time (+= over .us()/.ms()/"
     ".sec(), or SimTime built back from a floating expression): rounding "
     "is order-dependent; accumulate integer .ns() instead"},
    {"SV007",
     "direct console output (std::cout/std::cerr/printf/puts) or raw "
     "uint64_t counter member in simulation code (src/ outside src/obs and "
     "src/common): print from bench mains or the harness, and register "
     "statistics as obs::Registry counters so snapshots see them"},
    {"SV008",
     "raw payload byte copy (memcpy/memmove, or std::vector<std::byte> "
     "copy-construction) outside src/mem/: payload bytes move only through "
     "mem::Payload (copy_of/copy_to) or a BufferPool lease so every copy is "
     "charged to the mem ledger (DESIGN.md §10)"},
    {"SV009",
     "include edge that violates the declared layering DAG (common < obs < "
     "control < sim < mem < net < tcpstack = via < sockets < datacutter < "
     "vizapp < harness): a src/ module may include itself and strictly "
     "lower layers only (DESIGN.md §11)"},
    {"SV011",
     "raw OS concurrency (std::thread/mutex/atomic/condition_variable or "
     "their headers) in src/: simulated processes are fibers on one OS "
     "thread and must go through the sim scheduler, or determinism dies "
     "with the thread interleaving"},
    {"SV012",
     "metric name passed to the obs registry whose family is not declared "
     "in src/obs/metrics_manifest.txt: typo'd or orphaned counters corrupt "
     "dashboards and SLO controllers silently"},
    {"SV013",
     "direct memory registration or BufferPool acquisition "
     "(register_memory(), BufferPool::acquire()) outside src/mem/: outbound "
     "staging must route through mem::CopyPolicy so copies, pins and cache "
     "hits are charged to the ledger (DESIGN.md §14); the sanctioned "
     "modeled-DMA setup sites carry an explicit svlint:allow"},
    {"SV014",
     "SLO actuator invoked outside src/control/ (set_admit_permille(), or "
     "calling an apply_chunk_bytes/apply_demotion/apply_promotion "
     "callback): only the slo::Controller may mutate admission rates, "
     "chunk sizing or replica membership, so every control action is in "
     "its audited, deterministic action log (DESIGN.md §15); harnesses "
     "install the callbacks and query admit(), they never fire them"},
};

// Directories whose output feeds deterministic event ordering: iterating an
// unordered container here is a hazard even if it "looks" read-only.
constexpr const char* kOrderedContexts[] = {"src/sim/", "src/net/",
                                            "src/datacutter/", "src/vizapp/"};

// Files allowed to read wall clocks (measurement harness; RNG seeding).
constexpr const char* kWallClockAllowPrefixes[] = {"src/harness/"};
constexpr const char* kWallClockAllowFiles[] = {"src/common/rng.cc"};

// SV007 exemptions: the observability layer *implements* the counters, and
// src/common is infrastructure below it (CLI/log/table formatting must
// write somewhere).
constexpr const char* kObsAllowPrefixes[] = {"src/obs/", "src/common/"};

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool in_ordered_context(const std::string& rel_path) {
  for (const char* dir : kOrderedContexts) {
    if (starts_with(rel_path, dir)) return true;
  }
  return false;
}

bool wall_clock_allowed(const std::string& rel_path) {
  for (const char* dir : kWallClockAllowPrefixes) {
    if (starts_with(rel_path, dir)) return true;
  }
  for (const char* f : kWallClockAllowFiles) {
    if (rel_path == f) return true;
  }
  return false;
}

bool obs_rule_applies(const std::string& rel_path) {
  if (!starts_with(rel_path, "src/")) return false;
  for (const char* dir : kObsAllowPrefixes) {
    if (starts_with(rel_path, dir)) return false;
  }
  return true;
}

bool mem_rule_applies(const std::string& rel_path) {
  // src/mem implements the sanctioned copy primitives; everything else in
  // src/ (and the benches, which model applications) must route through it.
  if (starts_with(rel_path, "src/mem/")) return false;
  return starts_with(rel_path, "src/") || starts_with(rel_path, "bench/");
}

bool thread_rule_applies(const std::string& rel_path) {
  // Simulated processes are fibers on one OS thread (src/sim/process.h);
  // OS concurrency has no place anywhere in src/.
  return starts_with(rel_path, "src/");
}

bool metric_rule_applies(const std::string& rel_path) {
  return starts_with(rel_path, "src/") || starts_with(rel_path, "bench/");
}

bool pool_rule_applies(const std::string& rel_path) {
  // src/mem owns the policy engine that decides copy-vs-pin per message;
  // only it may touch registration or pool acquisition directly. Benches
  // and examples model raw-VIA applications, so they stay out of scope.
  if (starts_with(rel_path, "src/mem/")) return false;
  return starts_with(rel_path, "src/");
}

bool actuator_rule_applies(const std::string& rel_path) {
  // src/control owns the SLO actuators (DESIGN.md §15); everywhere else in
  // src/ and bench/ may install and query them but never fire them.
  if (starts_with(rel_path, "src/control/")) return false;
  return starts_with(rel_path, "src/") || starts_with(rel_path, "bench/");
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

using Tokens = std::vector<Token>;
constexpr std::size_t npos = std::string::npos;

bool P(const Tokens& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == Tok::kPunct && t[i].text == text;
}
bool I(const Tokens& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == Tok::kIdent && t[i].text == text;
}
bool is_ident(const Tokens& t, std::size_t i) {
  return i < t.size() && t[i].kind == Tok::kIdent;
}

bool punct_any(const Tokens& t, std::size_t i,
               std::initializer_list<const char*> texts) {
  if (i >= t.size() || t[i].kind != Tok::kPunct) return false;
  for (const char* s : texts) {
    if (t[i].text == s) return true;
  }
  return false;
}

bool ident_any(const Tokens& t, std::size_t i,
               std::initializer_list<const char*> texts) {
  if (i >= t.size() || t[i].kind != Tok::kIdent) return false;
  for (const char* s : texts) {
    if (t[i].text == s) return true;
  }
  return false;
}

// t[open] is "(" / "[" / "{": index of the matching closer, or npos.
std::size_t close_bracket(const Tokens& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (punct_any(t, i, {"(", "[", "{"})) ++depth;
    if (punct_any(t, i, {")", "]", "}"})) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return npos;
}

// t[open] is "<" opening a template argument list: index of the matching
// ">", or npos. Paren groups inside are skipped whole; a ';' aborts (it was
// a comparison, not a template).
std::size_t close_angle(const Tokens& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (P(t, i, ";")) return npos;
    if (P(t, i, "(")) {
      const std::size_t close = close_bracket(t, i);
      if (close == npos) return npos;
      i = close;
      continue;
    }
    if (P(t, i, "<")) ++depth;
    if (P(t, i, ">")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return npos;
}

// Joins token texts into a readable snippet ("const Node *").
std::string join_tokens(const Tokens& t, std::size_t from, std::size_t to) {
  std::string out;
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (!out.empty() && (t[i].kind == Tok::kIdent ||
                         t[i].kind == Tok::kNumber)) {
      out += ' ';
    }
    out += t[i].text;
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

void add(std::vector<Finding>* out, const std::string& rel_path, int line,
         const char* rule, std::string message) {
  out->push_back({rel_path, line, rule, std::move(message), "", false});
}

// ---------------------------------------------------------------------------
// SV001: unordered-container iteration in ordered-output contexts
// ---------------------------------------------------------------------------

bool is_unordered_kw(const Tokens& t, std::size_t i) {
  return ident_any(t, i, {"unordered_map", "unordered_set",
                          "unordered_multimap", "unordered_multiset"});
}

// Names of variables/members declared with an unordered container type
// anywhere in the file (declaration and use may be far apart).
std::set<std::string> collect_unordered_names(const Tokens& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_unordered_kw(t, i) || !P(t, i + 1, "<")) continue;
    const std::size_t close = close_angle(t, i + 1);
    if (close == npos) continue;
    std::size_t j = close + 1;
    while (punct_any(t, j, {"&", "*"})) ++j;
    if (is_ident(t, j) && t[j].text != "const") names.insert(t[j].text);
  }
  return names;
}

void check_sv001(const std::string& rel_path, const Tokens& t,
                 std::vector<Finding>* out) {
  if (!in_ordered_context(rel_path)) return;
  const std::set<std::string> names = collect_unordered_names(t);
  std::set<int> reported;  // one finding per line, like a reader reads it

  // Range-for whose range expression mentions an unordered container (by
  // declared name or as a temporary).
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!I(t, i, "for") || !P(t, i + 1, "(")) continue;
    const std::size_t close = close_bracket(t, i + 1);
    if (close == npos) continue;
    // The range-for ':' sits at depth 1 relative to the for's '('.
    std::size_t colon = npos;
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (punct_any(t, j, {"(", "[", "{"})) ++depth;
      if (punct_any(t, j, {")", "]", "}"})) --depth;
      if (depth == 1 && P(t, j, ":")) {
        colon = j;
        break;
      }
    }
    if (colon == npos) continue;
    std::string hit;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (is_unordered_kw(t, j)) {
        hit = trim(join_tokens(t, colon + 1, close));
        break;
      }
      if (is_ident(t, j) && names.count(t[j].text) != 0) {
        hit = t[j].text;
        break;
      }
    }
    if (!hit.empty() && reported.insert(t[i].line).second) {
      add(out, rel_path, t[i].line, "SV001",
          "iteration over unordered container '" + hit +
              "' in an ordered-output context");
    }
  }

  // Only begin()/cbegin(): iteration always needs one, while a bare .end()
  // is the ubiquitous (and order-safe) find() membership idiom.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i) || names.count(t[i].text) == 0) continue;
    if (i > 0 && punct_any(t, i - 1, {".", "->"})) continue;
    if (P(t, i + 1, ".") && ident_any(t, i + 2, {"begin", "cbegin"}) &&
        P(t, i + 3, "(") && reported.insert(t[i].line).second) {
      add(out, rel_path, t[i].line, "SV001",
          "iteration over unordered container '" + t[i].text +
              "' in an ordered-output context");
    }
  }
}

// ---------------------------------------------------------------------------
// SV002/SV003/SV004: nondeterministic inputs
// ---------------------------------------------------------------------------

void check_sv002_003_004(const std::string& rel_path, const Tokens& t,
                         std::vector<Finding>* out) {
  const bool skip_wall_clock = wall_clock_allowed(rel_path);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool member = i > 0 && punct_any(t, i - 1, {".", "->"});
    if (ident_any(t, i, {"rand", "srand"}) && P(t, i + 1, "(") && !member) {
      add(out, rel_path, t[i].line, "SV002",
          "call to rand()/srand(); use a seeded sv::Rng");
    }
    if (I(t, i, "random_device")) {
      add(out, rel_path, t[i].line, "SV003",
          "std::random_device is nondeterministic; use a seeded sv::Rng");
    }
    if (skip_wall_clock) continue;
    if (I(t, i, "chrono") && P(t, i + 1, "::") &&
        ident_any(t, i + 2,
                  {"system_clock", "steady_clock", "high_resolution_clock"})) {
      add(out, rel_path, t[i].line, "SV004",
          "wall-clock read in simulation code; only src/harness may measure "
          "real time");
    }
    if (ident_any(t, i, {"gettimeofday", "clock_gettime"}) &&
        P(t, i + 1, "(") && !member) {
      add(out, rel_path, t[i].line, "SV004",
          "wall-clock read in simulation code; only src/harness may measure "
          "real time");
    }
    if (I(t, i, "time") && P(t, i + 1, "(") && !member &&
        (ident_any(t, i + 2, {"nullptr", "NULL"}) ||
         (i + 2 < t.size() && t[i + 2].kind == Tok::kNumber &&
          t[i + 2].text == "0")) &&
        P(t, i + 3, ")")) {
      add(out, rel_path, t[i].line, "SV004",
          "wall-clock read in simulation code; only src/harness may measure "
          "real time");
    }
  }
}

// ---------------------------------------------------------------------------
// SV005: pointer-keyed ordered containers
// ---------------------------------------------------------------------------

void check_sv005(const std::string& rel_path, const Tokens& t,
                 std::vector<Finding>* out) {
  for (std::size_t i = 2; i < t.size(); ++i) {
    if (!ident_any(t, i, {"map", "set", "multimap", "multiset", "less",
                          "greater"})) {
      continue;
    }
    // Require a std:: qualifier so member names like "bitset" or local
    // types called "map" don't trip the rule.
    if (!P(t, i - 1, "::") || !I(t, i - 2, "std")) continue;
    if (!P(t, i + 1, "<")) continue;
    const std::size_t close = close_angle(t, i + 1);
    if (close == npos) continue;
    // First template argument: up to a depth-1 comma or the closer.
    std::size_t end = close;
    int depth = 1;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (P(t, j, "<")) ++depth;
      if (P(t, j, ">")) --depth;
      if (depth == 1 && P(t, j, ",")) {
        end = j;
        break;
      }
    }
    if (end > i + 2 && P(t, end - 1, "*")) {
      add(out, rel_path, t[i].line, "SV005",
          "ordered container keyed by pointer type '" +
              join_tokens(t, i + 2, end) +
              "': iteration order depends on allocation addresses");
    }
  }
}

// ---------------------------------------------------------------------------
// SV006: floating-point accumulation of simulated time
// ---------------------------------------------------------------------------

bool float_time_call_in(const Tokens& t, std::size_t from, std::size_t to) {
  for (std::size_t j = from; j + 3 < t.size() && j < to; ++j) {
    if (P(t, j, ".") && ident_any(t, j + 1, {"us", "ms", "sec"}) &&
        P(t, j + 2, "(") && P(t, j + 3, ")")) {
      return true;
    }
  }
  return false;
}

void check_sv006(const std::string& rel_path, const Tokens& t,
                 std::vector<Finding>* out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (punct_any(t, i, {"+=", "-="})) {
      std::size_t stmt_end = i;
      while (stmt_end < t.size() && !P(t, stmt_end, ";")) ++stmt_end;
      if (float_time_call_in(t, i + 1, stmt_end)) {
        add(out, rel_path, t[i].line, "SV006",
            "accumulating floating-point time; accumulate integer .ns() or "
            "SimTime instead");
      }
    }
    if (I(t, i, "SimTime") && P(t, i + 1, "(") &&
        I(t, i + 2, "static_cast")) {
      const std::size_t close = close_bracket(t, i + 1);
      if (close != npos && float_time_call_in(t, i + 2, close)) {
        add(out, rel_path, t[i].line, "SV006",
            "SimTime rebuilt from a floating-point time expression; keep "
            "time in integer nanoseconds");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SV007: bypassing the observability layer
// ---------------------------------------------------------------------------

// Counter-ish identifier suffixes: a uint64_t member named like one of
// these is a statistic someone will want in a snapshot.
constexpr const char* kCounterSuffixes[] = {
    "sent",    "received",      "count",       "seen",
    "dropped", "delayed",       "retransmitted", "retransmits",
    "expirations", "timeouts"};

// True when `ident` (with any trailing '_' stripped) is, or ends in
// '_' + one of, the counter suffixes: "timeouts", "bytes_sent_", ...
bool counter_like(const std::string& ident) {
  std::string name = ident;
  while (!name.empty() && name.back() == '_') name.pop_back();
  for (const char* suffix : kCounterSuffixes) {
    const std::string suf(suffix);
    if (name == suf) return true;
    if (name.size() > suf.size() + 1 &&
        name.compare(name.size() - suf.size(), suf.size(), suf) == 0 &&
        name[name.size() - suf.size() - 1] == '_') {
      return true;
    }
  }
  return false;
}

bool zero_literal(const Tokens& t, std::size_t i) {
  if (i >= t.size() || t[i].kind != Tok::kNumber) return false;
  const std::string& s = t[i].text;
  if (s.empty() || s[0] != '0') return false;
  for (std::size_t k = 1; k < s.size(); ++k) {
    if (s[k] != 'u' && s[k] != 'U' && s[k] != 'l' && s[k] != 'L') {
      return false;
    }
  }
  return true;
}

void check_sv007(const std::string& rel_path, const Tokens& t,
                 std::vector<Finding>* out) {
  if (!obs_rule_applies(rel_path)) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (I(t, i, "std") && P(t, i + 1, "::") &&
        ident_any(t, i + 2, {"cout", "cerr"})) {
      add(out, rel_path, t[i].line, "SV007",
          "direct console output in simulation code; print from bench "
          "mains/harness or export via obs");
    }
    const bool member = i > 0 && punct_any(t, i - 1, {".", "->"});
    if (ident_any(t, i, {"printf", "fprintf", "puts", "fputs"}) &&
        P(t, i + 1, "(") && !member) {
      add(out, rel_path, t[i].line, "SV007",
          "direct console output in simulation code; print from bench "
          "mains/harness or export via obs");
    }
    // A uint64_t member/variable with a counter-ish name: statistics belong
    // in the registry, where snapshot() and the accessors see one
    // authoritative value. Declaration shapes: "uint64_t x;" and
    // "uint64_t x = 0;".
    if (I(t, i, "uint64_t") && is_ident(t, i + 1) &&
        counter_like(t[i + 1].text) &&
        (P(t, i + 2, ";") ||
         (P(t, i + 2, "=") && zero_literal(t, i + 3) && P(t, i + 4, ";")))) {
      add(out, rel_path, t[i + 1].line, "SV007",
          "raw counter member '" + t[i + 1].text +
              "'; register an obs::Counter in the simulation registry so "
              "snapshots include it");
    }
  }
}

// ---------------------------------------------------------------------------
// SV008: payload byte copies outside the mem layer
// ---------------------------------------------------------------------------

void check_sv008(const std::string& rel_path, const Tokens& t,
                 std::vector<Finding>* out) {
  if (!mem_rule_applies(rel_path)) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool member = i > 0 && punct_any(t, i - 1, {".", "->"});
    // (a) memcpy/memmove — the classic smuggled copy. wmemcpy and
    // x.memcpy(...) are distinct tokens / member calls and do not trip.
    if (ident_any(t, i, {"memcpy", "memmove"}) && P(t, i + 1, "(") &&
        !member) {
      add(out, rel_path, t[i].line, "SV008",
          "memcpy/memmove outside src/mem/; copy through mem::Payload so "
          "the mem ledger records it");
    }
    // (b) std::vector<std::byte> built from existing bytes: deref copy
    // "vector<std::byte>(*p)" or iterator-range copy "(x.begin(), ...)".
    // Size construction "(n)" and default construction stay legal.
    if (!I(t, i, "vector") || !P(t, i + 1, "<")) continue;
    std::size_t j = i + 2;
    if (I(t, j, "std") && P(t, j + 1, "::")) j += 2;
    if (!I(t, j, "byte") || !P(t, j + 1, ">")) continue;
    j += 2;
    if (is_ident(t, j)) ++j;  // optional variable name
    if (!punct_any(t, j, {"(", "{"})) continue;
    const std::size_t inner = j + 1;
    const bool deref_copy = P(t, inner, "*");
    const bool range_copy = is_ident(t, inner) &&
                            punct_any(t, inner + 1, {".", "->"}) &&
                            ident_any(t, inner + 2, {"begin", "cbegin"}) &&
                            P(t, inner + 3, "(");
    if (deref_copy || range_copy) {
      add(out, rel_path, t[i].line, "SV008",
          "std::vector<std::byte> copy-constructed from existing bytes "
          "outside src/mem/; use Payload::copy_of or a BufferPool lease so "
          "the copy is charged");
    }
  }
}

// ---------------------------------------------------------------------------
// SV009: layering DAG over the include graph
// ---------------------------------------------------------------------------

void check_sv009(const std::string& rel_path, const LexedFile& lx,
                 std::vector<Finding>* out) {
  if (!starts_with(rel_path, "src/")) return;
  const std::string own = module_of(rel_path);
  const int own_rank = module_rank(own);
  if (own_rank < 0) {
    add(out, rel_path, 1, "SV009",
        "module 'src/" + own +
            "' is not in the declared layering DAG; add it to "
            "tools/svlint/include_graph.cc (and DESIGN.md §11) with a "
            "deliberate rank");
    return;
  }
  for (const Include& inc : lx.includes) {
    if (inc.angled) continue;
    const std::size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // local header
    const std::string target = inc.path.substr(0, slash);
    const int target_rank = module_rank(target);
    if (target_rank < 0 || target == own) continue;
    if (target_rank >= own_rank) {
      add(out, rel_path, inc.line, "SV009",
          "layering violation: '" + own + "' (layer " +
              std::to_string(own_rank) + ") may not include '" + inc.path +
              "' ('" + target + "' is layer " + std::to_string(target_rank) +
              "; the DAG is " + layering_description() + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// SV011: raw OS concurrency in src/
// ---------------------------------------------------------------------------

constexpr const char* kThreadHeaders[] = {
    "thread", "mutex", "shared_mutex", "condition_variable", "atomic",
    "future", "semaphore", "barrier", "latch", "stop_token"};

constexpr const char* kThreadIdents[] = {
    "thread", "jthread", "mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
    "condition_variable", "condition_variable_any", "lock_guard",
    "unique_lock", "scoped_lock", "shared_lock", "future", "promise",
    "async", "counting_semaphore", "binary_semaphore", "barrier", "latch",
    "stop_token", "stop_source"};

void check_sv011(const std::string& rel_path, const LexedFile& lx,
                 std::vector<Finding>* out) {
  if (!thread_rule_applies(rel_path)) return;
  for (const Include& inc : lx.includes) {
    if (!inc.angled) continue;
    for (const char* h : kThreadHeaders) {
      if (inc.path == h) {
        add(out, rel_path, inc.line, "SV011",
            "#include <" + inc.path +
                "> in src/: simulated code must synchronise through the "
                "sim scheduler, not OS threads");
      }
    }
  }
  const Tokens& t = lx.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!I(t, i, "std") || !P(t, i + 1, "::")) continue;
    const std::string& name = t[i + 2].text;
    bool hit = t[i + 2].kind == Tok::kIdent &&
               name.compare(0, 7, "atomic_") == 0;
    hit = hit || I(t, i + 2, "atomic");
    for (const char* id : kThreadIdents) {
      if (I(t, i + 2, id)) hit = true;
    }
    if (hit) {
      add(out, rel_path, t[i].line, "SV011",
          "raw std::" + name +
              " in src/: determinism requires all concurrency to go "
              "through the sim scheduler");
    }
  }
}

// ---------------------------------------------------------------------------
// SV012: metric names must be declared in the manifest
// ---------------------------------------------------------------------------

std::string metric_family(const std::string& literal) {
  const std::size_t brace = literal.find('{');
  return brace == std::string::npos ? literal : literal.substr(0, brace);
}

// Creation sites look like `<recv>.counter("name...")`; the receiver is
// irrelevant (registry reference, hub->metrics(), ...). Non-literal name
// arguments are skipped — the engine has no constant propagation.
bool metric_site(const Tokens& t, std::size_t i, std::string* family,
                 int* line) {
  if (!punct_any(t, i, {".", "->"}) ||
      !ident_any(t, i + 1, {"counter", "gauge", "histogram"}) ||
      !P(t, i + 2, "(")) {
    return false;
  }
  if (i + 3 >= t.size() || t[i + 3].kind != Tok::kString) return false;
  *family = metric_family(t[i + 3].text);
  *line = t[i + 1].line;
  return true;
}

void check_sv012(const std::string& rel_path, const Tokens& t,
                 const ProjectContext* ctx, std::vector<Finding>* out) {
  if (ctx == nullptr || !ctx->manifest_loaded) return;
  if (!metric_rule_applies(rel_path)) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::string family;
    int line = 0;
    if (!metric_site(t, i, &family, &line)) continue;
    if (family.empty() || ctx->metric_manifest.count(family) != 0) continue;
    add(out, rel_path, line, "SV012",
        "metric family '" + family +
            "' is not declared in src/obs/metrics_manifest.txt; declare it "
            "(or fix the typo) so dashboards and the manifest ctest see it");
  }
}

// ---------------------------------------------------------------------------
// SV013: memory registration / pool acquisition outside the mem layer
// ---------------------------------------------------------------------------

// Names declared with a BufferPool type in this file ("mem::BufferPool p",
// "std::optional<mem::BufferPool> pool_", "BufferPool* p"). The nested-name
// case ("BufferPool::Options") is not a declaration and must not collect.
std::set<std::string> collect_buffer_pool_names(const Tokens& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!I(t, i, "BufferPool")) continue;
    std::size_t j = i + 1;
    while (punct_any(t, j, {"&", "*", ">"})) ++j;
    if (is_ident(t, j) && t[j].text != "const") names.insert(t[j].text);
  }
  return names;
}

void check_sv013(const std::string& rel_path, const Tokens& t,
                 std::vector<Finding>* out) {
  if (!pool_rule_applies(rel_path)) return;
  const std::set<std::string> pools = collect_buffer_pool_names(t);
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (!punct_any(t, i, {".", "->"})) continue;
    // (a) any member register_memory() call: pinning is the policy
    // engine's decision, wherever the NIC handle came from.
    if (I(t, i + 1, "register_memory") && P(t, i + 2, "(")) {
      add(out, rel_path, t[i + 1].line, "SV013",
          "direct register_memory() outside src/mem/; registration must go "
          "through mem::CopyPolicy/RegCache so the pin is charged to the "
          "ledger");
      continue;
    }
    // (b) acquire() on a BufferPool receiver. acquire() is a common verb
    // (sim::Resource, EventArena, CopyPolicy), so the receiver
    // must be declared BufferPool in this file or carry a pool-ish name.
    if (!I(t, i + 1, "acquire") || !P(t, i + 2, "(")) continue;
    if (!is_ident(t, i - 1)) continue;
    const std::string& recv = t[i - 1].text;
    std::string lower;
    for (char c : recv) {
      lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (pools.count(recv) == 0 && lower.find("pool") == std::string::npos) {
      continue;
    }
    add(out, rel_path, t[i + 1].line, "SV013",
        "BufferPool::acquire on '" + recv +
            "' outside src/mem/; stage outbound payloads through "
            "mem::CopyPolicy so the copy-vs-pin decision is modeled and "
            "charged");
  }
}

// ---------------------------------------------------------------------------
// SV014: SLO actuator mutation outside the control plane
// ---------------------------------------------------------------------------

void check_sv014(const std::string& rel_path, const Tokens& t,
                 std::vector<Finding>* out) {
  if (!actuator_rule_applies(rel_path)) return;
  // The banned verbs. Installing a callback (`acts.apply_demotion = ...`)
  // is fine — only *calling* one (`.` / `->`, the name, then `(`) fires an
  // actuation, and actuations belong to the Controller alone.
  static constexpr const char* kActuators[] = {
      "set_admit_permille", "apply_chunk_bytes", "apply_demotion",
      "apply_promotion"};
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (!punct_any(t, i, {".", "->"})) continue;
    for (const char* name : kActuators) {
      if (!I(t, i + 1, name) || !P(t, i + 2, "(")) continue;
      add(out, rel_path, t[i + 1].line, "SV014",
          std::string("direct ") + name +
              "() call outside src/control/; actuations must come from "
              "slo::Controller so they appear in its deterministic action "
              "log (DESIGN.md §15)");
      break;
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() { return kRules; }

ProjectContext load_project(const std::filesystem::path& root) {
  ProjectContext ctx;
  std::ifstream in(root / "src/obs/metrics_manifest.txt");
  if (!in) return ctx;
  ctx.manifest_loaded = true;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string name = trim(line);
    if (name.empty() || name[0] == '#') continue;
    ctx.metric_manifest.emplace(name, lineno);
  }
  return ctx;
}

std::vector<Finding> scan_lexed(const std::string& rel_path,
                                const LexedFile& lx,
                                const ProjectContext* ctx) {
  std::vector<Finding> findings;
  const Tokens& t = lx.tokens;
  check_sv001(rel_path, t, &findings);
  check_sv002_003_004(rel_path, t, &findings);
  check_sv005(rel_path, t, &findings);
  check_sv006(rel_path, t, &findings);
  check_sv007(rel_path, t, &findings);
  check_sv008(rel_path, t, &findings);
  check_sv009(rel_path, lx, &findings);
  check_sv011(rel_path, lx, &findings);
  check_sv012(rel_path, t, ctx, &findings);
  check_sv013(rel_path, t, &findings);
  check_sv014(rel_path, t, &findings);

  // Apply suppressions (an allow on the finding's line or the line above)
  // and attach the offending source line as the report snippet.
  for (Finding& f : findings) {
    const auto idx = static_cast<std::size_t>(f.line - 1);
    const auto allowed = [&](std::size_t i) {
      return i < lx.allows.size() && lx.allows[i].count(f.rule) != 0;
    };
    if (allowed(idx) || (idx > 0 && allowed(idx - 1))) f.suppressed = true;
    if (idx < lx.raw_lines.size()) f.snippet = trim(lx.raw_lines[idx]);
  }

  // Stable order: by line, then rule id.
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return findings;
}

std::vector<Finding> scan_source(const std::string& rel_path,
                                 const std::string& text,
                                 const ProjectContext* ctx) {
  return scan_lexed(rel_path, lex(text), ctx);
}

std::vector<Finding> scan_file(const std::filesystem::path& root,
                               const std::string& rel_path,
                               const ProjectContext* ctx) {
  std::ifstream in(root / rel_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("svlint: cannot read " +
                             (root / rel_path).string());
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return scan_source(rel_path, ss.str(), ctx);
}

std::set<std::string> collect_metric_families(const LexedFile& lx) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < lx.tokens.size(); ++i) {
    std::string family;
    int line = 0;
    if (metric_site(lx.tokens, i, &family, &line) && !family.empty()) {
      out.insert(family);
    }
  }
  return out;
}

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void write_findings_json(std::ostream& os,
                         const std::vector<Finding>& findings) {
  std::vector<std::size_t> order(findings.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Finding& x = findings[a];
                     const Finding& y = findings[b];
                     if (x.rel_path != y.rel_path)
                       return x.rel_path < y.rel_path;
                     if (x.line != y.line) return x.line < y.line;
                     return x.rule < y.rule;
                   });
  os << "[\n";
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Finding& f = findings[order[i]];
    os << "  {\"file\": ";
    json_escape(os, f.rel_path);
    os << ", \"line\": " << f.line << ", \"rule\": ";
    json_escape(os, f.rule);
    os << ", \"message\": ";
    json_escape(os, f.message);
    os << ", \"snippet\": ";
    json_escape(os, f.snippet);
    os << ", \"suppressed\": " << (f.suppressed ? "true" : "false") << "}"
       << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace sv::lint
