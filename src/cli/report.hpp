// Assembles a driver run's report and renders it as human-readable text
// or a single JSON object.
//
// The LazyMC solve path (solve_lazymc) is shared by the lazymc driver and
// the lazymcd daemon, so both produce the same report for the same
// solve.  The JSON form exposes the complete LazyMCResult instrumentation
// (phase times, search stats, lazy-graph stats) so scripted sweeps can
// regenerate the paper's figures without parsing tables.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cli/graph_source.hpp"
#include "graph/graph.hpp"
#include "mc/lazymc.hpp"
#include "support/faultinject.hpp"

namespace lazymc::cli {

struct RunReport {
  /// Daemon request identity, empty for plain CLI runs.  When set,
  /// render_json leads the object with request_id/status so lazymcd's
  /// solve responses are the CLI's --json schema plus request framing.
  /// status is "ok", "timeout", or "interrupted".
  std::string request_id;
  std::string request_status;

  std::string graph;   // LoadedGraph::description
  std::string solver;  // solver_name(...)
  std::size_t threads = 1;
  VertexId num_vertices = 0;
  EdgeId num_edges = 0;
  double load_seconds = 0;
  /// LoadedGraph::load_path: "parse", "mmap", or "gen".
  std::string load_path = "parse";
  double solve_seconds = 0;

  std::vector<VertexId> clique;  // empty for mce
  VertexId omega = 0;
  bool timed_out = false;
  /// SIGINT/SIGTERM arrived during the solve: the clique is best-so-far
  /// (anytime result), and the driver exits with the interrupted code.
  bool interrupted = false;

  /// Independent post-solve check of the witness clique against the input
  /// graph (pairwise adjacency + size agreement with omega), run in every
  /// build: "ok", "failed", or "skipped" (MCE reports no witness).
  std::string verification = "skipped";

  /// Full instrumentation, present only for --solver lazymc.
  bool has_lazymc = false;
  mc::LazyMCResult lazymc;

  /// Present only for --solver mce.
  bool has_mce = false;
  std::uint64_t mce_count = 0;

  /// Fault-injection counters (faults::snapshot()); non-empty only in
  /// -DLAZYMC_FAULTS=ON builds once any site was interned.
  std::vector<faults::SiteStats> fault_sites;
};

/// A report whose header (graph, solver, pool threads, sizes, load
/// provenance) describes a solve of `loaded` by `solver`.
RunReport report_header(const LoadedGraph& loaded, const std::string& solver);

/// Independent re-check of the witness, in every build (not just checked
/// ones): the clique must be pairwise adjacent in the *input* graph and
/// match the omega about to be reported.  Sets report.verification to
/// "ok" or "failed" (MCE reports a count, not a witness, so it stays
/// "skipped") and snapshots the fault-injection counters.
void verify_report(RunReport& report, const Graph& g);

/// Runs LazyMC on `loaded` under `config` and returns the verified
/// report.  A binary store's preprocessing (order, coreness, rows) is
/// handed to the solve, so those phases collapse; `loaded` outlives the
/// solve.  Callers add their own framing (interrupt/timeout
/// classification, request identity) and decide what a failed
/// verification means.
RunReport solve_lazymc(const LoadedGraph& loaded, mc::LazyMCConfig config);

void render_text(const RunReport& report, std::ostream& out);
void render_json(const RunReport& report, std::ostream& out);

}  // namespace lazymc::cli
