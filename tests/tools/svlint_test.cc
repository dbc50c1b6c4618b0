// Fixture-corpus tests for svlint: every rule id must catch its seeded
// violation, path scoping must hold, and suppressions must downgrade
// findings without hiding them.
#include "svlint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "include_graph.h"

namespace sv::lint {
namespace {

std::vector<Finding> scan_fixture(const std::string& rel_path) {
  return scan_file(SVLINT_FIXTURE_DIR, rel_path);
}

std::vector<Finding> unsuppressed(const std::vector<Finding>& fs) {
  std::vector<Finding> out;
  std::copy_if(fs.begin(), fs.end(), std::back_inserter(out),
               [](const Finding& f) { return !f.suppressed; });
  return out;
}

bool has(const std::vector<Finding>& fs, const std::string& rule, int line) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line && !f.suppressed;
  });
}

TEST(SvlintRules, RuleTableListsThirteenRules) {
  ASSERT_EQ(rules().size(), 13u);
  EXPECT_STREQ(rules().front().id, "SV001");
  EXPECT_STREQ(rules().back().id, "SV014");
}

TEST(SvlintRules, Sv001CatchesUnorderedIteration) {
  const auto fs = scan_fixture("src/sim/unordered_iter.cc");
  const auto live = unsuppressed(fs);
  EXPECT_TRUE(has(live, "SV001", 12)) << "range-for over member map";
  EXPECT_TRUE(has(live, "SV001", 18)) << ".begin() on unordered set";
  EXPECT_TRUE(has(live, "SV001", 31)) << "range-for over temporary";
  EXPECT_EQ(live.size(), 3u);
  // The allowed block is still reported, flagged as suppressed.
  EXPECT_EQ(fs.size(), 4u);
  EXPECT_TRUE(fs[2].suppressed || fs[3].suppressed);
}

TEST(SvlintRules, Sv001ScopedToOrderedOutputContexts) {
  const auto fs = scan_fixture("src/harness/unordered_iter_ok.cc");
  EXPECT_TRUE(fs.empty()) << "src/harness is not an ordered-output context";
}

TEST(SvlintRules, Sv002CatchesLibcRand) {
  const auto live = unsuppressed(scan_fixture("src/net/rand_call.cc"));
  EXPECT_TRUE(has(live, "SV002", 5)) << "std::rand()";
  EXPECT_TRUE(has(live, "SV002", 9)) << "srand()";
  EXPECT_EQ(live.size(), 2u) << "identifiers containing 'rand' must not trip";
}

TEST(SvlintRules, Sv003CatchesRandomDevice) {
  const auto live =
      unsuppressed(scan_fixture("src/datacutter/random_device.cc"));
  EXPECT_TRUE(has(live, "SV003", 5));
  EXPECT_EQ(live.size(), 1u);
}

TEST(SvlintRules, Sv004CatchesWallClocks) {
  const auto live = unsuppressed(scan_fixture("src/vizapp/wall_clock.cc"));
  EXPECT_TRUE(has(live, "SV004", 6)) << "steady_clock";
  EXPECT_TRUE(has(live, "SV004", 11)) << "system_clock";
  EXPECT_TRUE(has(live, "SV004", 16)) << "high_resolution_clock";
  EXPECT_TRUE(has(live, "SV004", 21)) << "time(nullptr)";
  EXPECT_TRUE(has(live, "SV004", 26)) << "clock_gettime";
  EXPECT_EQ(live.size(), 5u);
}

TEST(SvlintRules, Sv004AllowsHarness) {
  EXPECT_TRUE(scan_fixture("src/harness/wall_clock_ok.cc").empty());
}

TEST(SvlintRules, Sv005CatchesPointerKeyedContainers) {
  const auto live = unsuppressed(scan_fixture("src/sim/ptr_map.cc"));
  EXPECT_TRUE(has(live, "SV005", 9)) << "std::map<Node*, int>";
  EXPECT_TRUE(has(live, "SV005", 10)) << "std::set<const Node*>";
  EXPECT_EQ(live.size(), 2u)
      << "pointer values / non-pointer keys must not trip";
}

TEST(SvlintRules, Sv006CatchesFloatTimeAccumulation) {
  const auto live = unsuppressed(scan_fixture("src/net/float_time.cc"));
  EXPECT_TRUE(has(live, "SV006", 15)) << "+= over .us()";
  EXPECT_TRUE(has(live, "SV006", 21)) << "SimTime from float expression";
  EXPECT_EQ(live.size(), 2u) << "integer .ns() accumulation must not trip";
}

TEST(SvlintRules, FaultInjectionAntiPatternsAllCaught) {
  // The fault layer's determinism hinges on seeded-RNG-only randomness and
  // value-keyed link state; the fixture seeds one violation of each kind.
  const auto live = unsuppressed(scan_fixture("src/net/fault_unseeded.cc"));
  EXPECT_TRUE(has(live, "SV003", 10)) << "random_device entropy source";
  EXPECT_TRUE(has(live, "SV005", 11)) << "pointer-keyed link-state map";
  EXPECT_TRUE(has(live, "SV002", 14)) << "libc rand() for drop decisions";
  EXPECT_EQ(live.size(), 3u);
}

TEST(SvlintRules, SeededFaultIdiomIsClean) {
  // The blessed shape of src/net/fault.cc: seed-derived per-link streams
  // in a value-keyed ordered map must produce zero findings.
  EXPECT_TRUE(scan_fixture("src/net/fault_seeded_ok.cc").empty());
}

TEST(SvlintRules, Sv007CatchesConsoleOutputAndRawCounters) {
  const auto fs = scan_fixture("src/net/console_counter.cc");
  const auto live = unsuppressed(fs);
  EXPECT_TRUE(has(live, "SV007", 8)) << "std::cout";
  EXPECT_TRUE(has(live, "SV007", 9)) << "std::fprintf";
  EXPECT_TRUE(has(live, "SV007", 14)) << "frames_seen_ member";
  EXPECT_TRUE(has(live, "SV007", 15)) << "uninitialised frames_dropped_";
  EXPECT_EQ(live.size(), 4u)
      << "snprintf, non-counter members and function parameters must not "
         "trip";
  // The allowed snapshot local is reported but suppressed.
  ASSERT_EQ(fs.size(), 5u);
  EXPECT_TRUE(fs.back().suppressed);
  EXPECT_EQ(fs.back().line, 21);
}

TEST(SvlintRules, Sv007ExemptsObsAndCommonLayers) {
  EXPECT_TRUE(scan_fixture("src/obs/registry_impl_ok.cc").empty())
      << "src/obs implements the counters; the rule must not fire there";
  // Same content relocated into scope does fire.
  EXPECT_FALSE(unsuppressed(scan_source("src/sim/x.cc",
                                        "std::uint64_t drops_count_ = 0;\n"))
                   .empty());
  EXPECT_TRUE(scan_source("src/common/log2.cc",
                          "std::uint64_t drops_count_ = 0;\n")
                  .empty());
}

TEST(SvlintRules, Sv008CatchesRawPayloadCopies) {
  const auto fs = scan_fixture("src/net/payload_copy.cc");
  const auto live = unsuppressed(fs);
  EXPECT_TRUE(has(live, "SV008", 7)) << "std::memcpy";
  EXPECT_TRUE(has(live, "SV008", 8)) << "unqualified memmove";
  EXPECT_TRUE(has(live, "SV008", 9)) << "iterator-range byte-vector copy";
  EXPECT_TRUE(has(live, "SV008", 15)) << "deref byte-vector copy";
  EXPECT_EQ(live.size(), 4u)
      << "size construction and wmemcpy must not trip";
  // The modeled-DMA memcpy is reported but suppressed.
  ASSERT_EQ(fs.size(), 5u);
  EXPECT_TRUE(fs.back().suppressed);
  EXPECT_EQ(fs.back().line, 17);
}

TEST(SvlintRules, Sv008ExemptsMemLayer) {
  EXPECT_TRUE(scan_fixture("src/mem/payload_impl_ok.cc").empty())
      << "src/mem implements the sanctioned copies; the rule must not fire "
         "there";
  // The same content relocated outside src/mem does fire.
  EXPECT_FALSE(
      unsuppressed(scan_source("src/tcpstack/x.cc",
                               "void f() { memcpy(a, b, n); }\n"))
          .empty());
  // Tests and tools are out of scope: copies there model nothing.
  EXPECT_TRUE(
      scan_source("tools/x.cc", "void f() { memcpy(a, b, n); }\n").empty());
}

TEST(SvlintRules, CleanFileHasNoFindings) {
  EXPECT_TRUE(scan_fixture("src/sim/clean.cc").empty())
      << "hazard words in comments/strings must be stripped; find()/"
         "membership on unordered containers is fine";
}

TEST(SvlintRules, Sv009CatchesUpwardLayeringEdges) {
  const auto fs = scan_fixture("src/net/layer_violation.cc");
  const auto live = unsuppressed(fs);
  EXPECT_TRUE(has(live, "SV009", 6)) << "net including sockets (upward)";
  EXPECT_TRUE(has(live, "SV009", 7)) << "net including via (upward)";
  EXPECT_EQ(live.size(), 2u)
      << "downward, same-module, local and angled includes must not trip";
  // The allowed upward edge is still reported, flagged as suppressed.
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_TRUE(fs.back().suppressed);
  EXPECT_EQ(fs.back().line, 11);
}

TEST(SvlintRules, Sv009AllowsEveryDownwardEdgeFromTheTop) {
  EXPECT_TRUE(scan_fixture("src/sockets/layering_ok.cc").empty());
  // Files outside src/ carry no layer.
  EXPECT_TRUE(
      scan_source("tools/x.cc", "#include \"sockets/socket.h\"\n").empty());
}

TEST(SvlintRules, Sv009RejectsModulesOutsideTheDeclaredDag) {
  const auto fs = scan_source("src/newmod/x.cc", "int x = 0;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "SV009");
  EXPECT_EQ(fs[0].line, 1);
}

TEST(SvlintRules, Sv011CatchesRawConcurrencyOutsideSim) {
  const auto fs = scan_fixture("src/net/thread_use.cc");
  const auto live = unsuppressed(fs);
  EXPECT_TRUE(has(live, "SV011", 4)) << "#include <thread>";
  EXPECT_TRUE(has(live, "SV011", 5)) << "#include <mutex>";
  EXPECT_TRUE(has(live, "SV011", 9)) << "std::thread";
  EXPECT_TRUE(has(live, "SV011", 10)) << "std::atomic_int";
  EXPECT_TRUE(has(live, "SV011", 11)) << "std::lock_guard + std::mutex";
  EXPECT_EQ(live.size(), 6u)
      << "std::vector, non-std 'threading::' and <vector> must not trip";
  ASSERT_EQ(fs.size(), 7u);
  EXPECT_TRUE(fs.back().suppressed);
  EXPECT_EQ(fs.back().line, 15);
}

TEST(SvlintRules, Sv011CoversTheSimScheduler) {
  const auto fs = scan_source("src/sim/process.cc", "#include <thread>\n");
  ASSERT_EQ(fs.size(), 1u) << "processes are fibers: src/sim has no carve-out";
  EXPECT_EQ(fs[0].rule, "SV011");
}

TEST(SvlintRules, Sv012ChecksMetricFamiliesAgainstManifest) {
  const ProjectContext ctx = load_project(SVLINT_FIXTURE_DIR);
  ASSERT_TRUE(ctx.manifest_loaded);
  ASSERT_EQ(ctx.metric_manifest.size(), 2u);
  const auto fs =
      scan_file(SVLINT_FIXTURE_DIR, "src/net/metric_names.cc", &ctx);
  const auto live = unsuppressed(fs);
  EXPECT_TRUE(has(live, "SV012", 7)) << "typo'd family via hub->metrics()";
  EXPECT_TRUE(has(live, "SV012", 8)) << "undeclared histogram family";
  EXPECT_EQ(live.size(), 2u)
      << "declared families, '{label}' suffixes and non-literal names must "
         "not trip";
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_TRUE(fs.back().suppressed);
  EXPECT_EQ(fs.back().line, 11);
}

TEST(SvlintRules, Sv012InertWithoutAManifest) {
  // scan_fixture passes no project context; the rule must degrade to off
  // rather than flagging every metric in a tree without a manifest.
  EXPECT_TRUE(scan_fixture("src/net/metric_names.cc").empty());
}

TEST(SvlintRules, Sv013CatchesDirectRegistrationAndPoolAcquire) {
  const auto fs = scan_fixture("src/sockets/pool_direct.cc");
  const auto live = unsuppressed(fs);
  EXPECT_TRUE(has(live, "SV013", 6)) << "nic.register_memory";
  EXPECT_TRUE(has(live, "SV013", 7)) << "acquire on BufferPool-typed param";
  EXPECT_TRUE(has(live, "SV013", 15)) << "acquire on pool-ish member";
  EXPECT_EQ(live.size(), 3u)
      << "Resource::acquire and CopyPolicy::acquire must not trip";
  // The sanctioned modeled-DMA setup is reported but suppressed.
  ASSERT_EQ(fs.size(), 4u);
  EXPECT_TRUE(fs.back().suppressed);
  EXPECT_EQ(fs.back().line, 28);
}

TEST(SvlintRules, Sv014CatchesActuatorCallsOutsideControl) {
  const auto fs = scan_fixture("src/harness/actuator_call.cc");
  const auto live = unsuppressed(fs);
  EXPECT_TRUE(has(live, "SV014", 8)) << "set_admit_permille outside control";
  EXPECT_TRUE(has(live, "SV014", 9)) << "firing an installed callback";
  EXPECT_TRUE(has(live, "SV014", 10)) << "arrow receiver";
  EXPECT_EQ(live.size(), 3u)
      << "installing callbacks and querying admit() must not trip";
  // The drill override is reported but suppressed.
  ASSERT_EQ(fs.size(), 4u);
  EXPECT_TRUE(fs.back().suppressed);
  EXPECT_EQ(fs.back().line, 24);
}

TEST(SvlintRules, Sv014ExemptsTheControlPlane) {
  EXPECT_TRUE(scan_fixture("src/control/actuator_ok.cc").empty());
}

TEST(SvlintRules, Sv013ExemptsMemLayerAndNonSrcTrees) {
  EXPECT_TRUE(
      scan_source("src/mem/x.cc", "void f(P& p) { p.register_memory(4); }\n")
          .empty())
      << "src/mem implements the sanctioned registration path";
  EXPECT_TRUE(
      scan_source("bench/x.cc", "void f(N& n) { n.register_memory(4); }\n")
          .empty())
      << "benches model raw-VIA applications and stay out of scope";
  EXPECT_FALSE(
      unsuppressed(scan_source(
                       "src/vizapp/x.cc",
                       "void f(N& n) { auto r = n.register_memory(4); }\n"))
          .empty());
}

TEST(SvlintRules, CollectMetricFamiliesFeedsTheOrphanCheck) {
  const std::string text =
      "void f(Registry& reg) {\n"
      "  reg.counter(\"a.hits{link=x}\");\n"
      "  reg.gauge(\"b.depth\");\n"
      "  reg.counter(\"a.hits\");\n"
      "}\n";
  const auto families = collect_metric_families(lex(text));
  EXPECT_EQ(families, (std::set<std::string>{"a.hits", "b.depth"}));
}

TEST(IncludeGraph, ModuleRanksDeclareTheDag) {
  EXPECT_EQ(module_of("src/net/fabric.cc"), "net");
  EXPECT_EQ(module_of("src/common/log.h"), "common");
  EXPECT_EQ(module_of("tools/svlint/main.cc"), "");
  const char* order[] = {"common",     "obs",    "control", "sim",
                         "mem",        "net",    "tcpstack", "sockets",
                         "datacutter", "vizapp", "harness"};
  for (std::size_t i = 1; i < std::size(order); ++i) {
    EXPECT_LT(module_rank(order[i - 1]), module_rank(order[i]))
        << order[i - 1] << " must rank below " << order[i];
  }
  EXPECT_EQ(module_rank("via"), module_rank("tcpstack"))
      << "the two transports are peers";
  EXPECT_EQ(module_rank("not_a_module"), -1);
}

TEST(SvlintLexer, RawStringsCommentsAndIncludesAreNotCode) {
  const std::string text =
      "#include \"net/fabric.h\"\n"
      "#include <vector>\n"
      "// std::rand() lives in a comment\n"
      "const char* p = R\"(std::random_device rd; memcpy(a, b, n);)\";\n"
      "/* std::thread in\n"
      "   a block comment */\n"
      "int x = 0;\n";
  EXPECT_TRUE(scan_source("src/net/x.cc", text).empty())
      << "hazard words in comments, strings and raw strings are not code";

  const LexedFile lx = lex(text);
  ASSERT_EQ(lx.includes.size(), 2u);
  EXPECT_EQ(lx.includes[0].path, "net/fabric.h");
  EXPECT_FALSE(lx.includes[0].angled);
  EXPECT_EQ(lx.includes[0].line, 1);
  EXPECT_EQ(lx.includes[1].path, "vector");
  EXPECT_TRUE(lx.includes[1].angled);
}

TEST(SvlintSuppression, SameLineAndPreviousLineBothWork) {
  const std::string same_line =
      "int f() { return std::rand(); }  // svlint:allow(SV002): why\n";
  auto fs = scan_source("src/sim/x.cc", same_line);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(fs[0].suppressed);

  const std::string prev_line =
      "// svlint:allow(SV002): why\nint f() { return std::rand(); }\n";
  fs = scan_source("src/sim/x.cc", prev_line);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(fs[0].suppressed);

  const std::string wrong_rule =
      "int f() { return std::rand(); }  // svlint:allow(SV001)\n";
  fs = scan_source("src/sim/x.cc", wrong_rule);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_FALSE(fs[0].suppressed) << "allow of a different rule is inert";
}

TEST(SvlintSuppression, MultiRuleAllowList) {
  const std::string text =
      "double d = 0; d += t.us();  // svlint:allow(SV004, SV006)\n";
  const auto fs = scan_source("src/net/x.cc", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "SV006");
  EXPECT_TRUE(fs[0].suppressed);
}

TEST(SvlintJson, FindingsSerializeSortedWithEscapes) {
  std::vector<Finding> fs;
  fs.push_back({"src/b.cc", 2, "SV002", "uses \"rand\"", "x = rand();",
                false});
  fs.push_back({"src/a.cc", 9, "SV004", "wall clock", "t();", true});
  std::ostringstream os;
  write_findings_json(os, fs);
  const std::string js = os.str();
  EXPECT_LT(js.find("src/a.cc"), js.find("src/b.cc"))
      << "sorted by file regardless of insertion order";
  EXPECT_NE(js.find("\\\"rand\\\""), std::string::npos)
      << "quotes in messages must be escaped";
  EXPECT_NE(js.find("\"suppressed\": true"), std::string::npos);
  EXPECT_EQ(js.find("baselined"), std::string::npos)
      << "inline svlint:allow is the only suppression";
}

TEST(SvlintScan, FindingsAreSortedAndStable) {
  const std::string text =
      "int a = std::rand();\n"
      "std::random_device rd;\n";
  const auto fs = scan_source("src/net/x.cc", text);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[0].rule, "SV002");
  EXPECT_EQ(fs[1].line, 2);
  EXPECT_EQ(fs[1].rule, "SV003");
}

}  // namespace
}  // namespace sv::lint
