// Command-line options for the `lazymc` driver binary.
//
// Usage:
//   lazymc --graph <file|gen:name[:scale]> [--graph ...] [--manifest FILE]
//          [--solver NAME] [--threads N] [--time-limit SECONDS]
//          [--order coreness|peeling]
//          [--rep auto|hash|sorted|bitset|hybrid] [--bitset-budget-mb N]
//          [--pre-density]
//          [--split auto|on|off] [--split-depth N] [--split-min-cands N]
//          [--split-min-work N] [--kernels auto|scalar|avx2|avx512]
//          [--json] [--journal FILE] [--resume] [--retries N]
//          [--fault SPEC]
//
// `--graph` may repeat and `--manifest` names a file with one graph spec
// per line; with more than one instance the driver runs them all in
// sequence and streams one JSON object per instance (batch mode).
//
// Solvers: lazymc (default), domega (alias domega-bs), domega-ls, mcbrb,
// pmc, reference, mce.
//
// The LazyMC flags write straight into Options::config, so their
// defaults are mc::LazyMCConfig's; the enum flags read the name tables
// defined next to each enum (kSolverNames, kVertexOrderNames,
// kNeighborhoodRepNames, kSplitModeNames, simd::kTierNames) and the
// numeric flags the parsers in cli/flags.hpp.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mc/lazymc.hpp"
#include "support/names.hpp"

namespace lazymc::cli {

enum class Solver {
  kLazyMc,
  kDomegaLinearScan,
  kDomegaBinarySearch,
  kMcBrb,
  kPmc,
  kReference,
  kMce,
};

/// The --solver spellings ("domega" is an alias of "domega-bs").
inline constexpr Named<Solver> kSolverNames[] = {
    {"lazymc", Solver::kLazyMc},
    {"domega-bs", Solver::kDomegaBinarySearch},
    {"domega", Solver::kDomegaBinarySearch},
    {"domega-ls", Solver::kDomegaLinearScan},
    {"mcbrb", Solver::kMcBrb},
    {"pmc", Solver::kPmc},
    {"reference", Solver::kReference},
    {"mce", Solver::kMce},
};

/// Human-readable solver name (the canonical --solver spelling).
inline const char* solver_name(Solver solver) {
  return name_of(kSolverNames, solver);
}

struct Options {
  /// One entry per --graph flag (file path or "gen:name[:scale]").
  std::vector<std::string> graph_specs;
  /// File with one graph spec per line ('#' comments, blanks skipped);
  /// resolved by the driver and appended after graph_specs.
  std::string manifest_path;
  Solver solver = Solver::kLazyMc;
  /// The LazyMC solve configuration.  Its time_limit_seconds
  /// (--time-limit) applies to every solver.
  mc::LazyMCConfig config;
  std::size_t threads = 0;  // 0 = hardware default
  bool json = false;
  /// Fault-injection specs (one per --fault flag), applied in order after
  /// the LAZYMC_FAULTS environment variable.  Rejected (input error) when
  /// the binary was built without -DLAZYMC_FAULTS=ON.
  std::vector<std::string> fault_specs;
  /// Batch journal: append one line per completed instance; with
  /// --resume, instances already journaled are skipped.
  std::string journal_path;
  bool resume = false;
  /// Retries for transient (resource) per-instance failures, with capped
  /// exponential backoff.
  std::size_t retries = 0;
};

/// Returns the usage string (also printed by --help).
std::string usage();

/// Parses argv.  Throws Error(kInput) with a message and the usage text
/// on bad input; sets `wants_help` when --help/-h was given (caller
/// prints usage, exits 0).
Options parse_options(int argc, char** argv, bool& wants_help);

}  // namespace lazymc::cli
