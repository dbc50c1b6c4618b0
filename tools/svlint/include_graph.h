// The declared layering DAG over src/.
//
// The source tree is layered (DESIGN.md §11): a module may include itself
// and strictly lower layers only, so refactors cannot silently tangle e.g.
// the simulator core into the transport implementations. The table in
// include_graph.cc IS the declaration — changing the architecture means
// changing that table in the same commit, where the diff is visible. SV009
// checks each file's raw #include directives against it.
#pragma once

#include <string>

namespace sv::lint {

/// Layer rank of a src/ module name ("common", "sim", ...), or -1 when the
/// module is not in the declared layering table. Lower rank = lower layer.
int module_rank(const std::string& module);

/// The module a repo-relative path belongs to ("src/net/fabric.cc" ->
/// "net"), or "" when the path is not under src/.
std::string module_of(const std::string& rel_path);

/// Human-readable "common < obs < sim < ..." rendering of the declared DAG,
/// for rule messages and --list-rules.
std::string layering_description();

}  // namespace sv::lint
