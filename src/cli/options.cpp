#include "cli/options.hpp"

#include <optional>
#include <string>

#include "cli/flags.hpp"
#include "support/error.hpp"
#include "support/names.hpp"
#include "support/simd.hpp"

namespace lazymc::cli {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw Error(ErrorKind::kInput, what);
}

/// The value `name` spells in `table`, or Error(kInput) "unknown WHAT
/// 'name' (expected a|b|c)".
template <class E, std::size_t N>
E parse_enum(const Named<E> (&table)[N], const std::string& name,
             const std::string& what) {
  const std::optional<E> value = from_name(table, name);
  if (!value) {
    fail("unknown " + what + " '" + name + "' (expected " + name_list(table) +
         ")");
  }
  return *value;
}

}  // namespace

std::string usage() {
  return
      "usage: lazymc --graph <file|gen:name[:scale]> [options]\n"
      "\n"
      "Loads a graph and computes its maximum clique (or enumerates its\n"
      "maximal cliques with --solver mce).  --graph may repeat, and\n"
      "--manifest adds one spec per line from a file; with more than one\n"
      "instance the driver runs them all and streams one JSON object per\n"
      "instance (batch mode, for corpus-wide sweeps).\n"
      "\n"
      "graph sources:\n"
      "  <file>               DIMACS .clq/.col or whitespace edge list\n"
      "                       (auto-detected by content)\n"
      "  gen:NAME[:SCALE]     named instance from the synthetic suite;\n"
      "                       SCALE is tiny|small|medium (default small)\n"
      "\n"
      "options:\n"
      "  --manifest FILE      file of graph specs, one per line ('#'\n"
      "                       starts a comment, blank lines skipped)\n"
      "  --solver NAME        lazymc (default), domega | domega-bs,\n"
      "                       domega-ls, mcbrb, pmc, reference, mce\n"
      "  --threads N          worker threads (default: hardware)\n"
      "  --time-limit SECONDS wall-clock limit (default: none; the\n"
      "                       reference solver does not support limits\n"
      "                       and ignores this)\n"
      "  --order KIND         lazymc vertex order: coreness (default) |\n"
      "                       peeling; other solvers use their own order\n"
      "  --rep KIND           lazymc neighborhood representation built on\n"
      "                       first use: auto (default; degree rule +\n"
      "                       bitset rows where cheap) | hash | sorted |\n"
      "                       bitset | hybrid (Roaring-style per-row\n"
      "                       array/bitset/run containers).  hash/sorted\n"
      "                       disable zone rows entirely\n"
      "  --bitset-budget-mb N memory budget for bitset/hybrid rows\n"
      "                       (default 64; 0 disables the representation)\n"
      "  --pre-density        route the MC-vs-VC solver choice on the\n"
      "                       filter-3 edge estimate instead of the\n"
      "                       extracted subgraph's exact density\n"
      "  --split MODE         decompose oversized B&B subproblems into\n"
      "                       stealable tasks on the shared work queue:\n"
      "                       auto (default; only when >1 thread) | on |\n"
      "                       off\n"
      "  --split-depth N      maximum split generations (default 2;\n"
      "                       0 disables splitting)\n"
      "  --split-min-cands N  minimum candidate-set size for a frame to\n"
      "                       be carved into a task (default 128)\n"
      "  --split-min-work N   gate task carving on the work estimate\n"
      "                       candidates x density >= N instead of the raw\n"
      "                       candidate count (default 0 = count rule)\n"
      "  --kernels TIER       SIMD tier for the word-parallel kernels:\n"
      "                       auto (default; best of build + CPU) |\n"
      "                       scalar | avx2 | avx512 (forced tiers fail\n"
      "                       when not compiled in / CPU-supported)\n"
      "  --json               emit the result as JSON on stdout\n"
      "                       (implied by batch mode)\n"
      "  --journal FILE       batch mode: append one JSON line per\n"
      "                       completed instance (crash-safe results log)\n"
      "  --resume             batch mode: skip instances already recorded\n"
      "                       in the --journal file (requires --journal)\n"
      "  --retries N          retry an instance up to N times after a\n"
      "                       transient (resource) failure, with capped\n"
      "                       exponential backoff (default 0)\n"
      "  --fault SPEC         arm fault-injection sites (repeatable);\n"
      "                       SPEC is site=nth:N | site=every:K |\n"
      "                       site=prob:P[:seed], comma-separable.  Also\n"
      "                       read from the LAZYMC_FAULTS environment\n"
      "                       variable.  Requires a -DLAZYMC_FAULTS=ON\n"
      "                       build; see src/support/faultinject.hpp\n"
      "  --help, -h           print this message\n"
      "\n"
      "exit codes:\n"
      "  0  solved (batch: every instance solved or timed out)\n"
      "  2  the --time-limit expired (single instance; the report still\n"
      "     carries the best clique found and timed_out: true)\n"
      "  3  input error (bad flags, unreadable/ill-formed graph or\n"
      "     manifest, bad fault spec)\n"
      "  4  internal or resource error (unexpected exception, failed\n"
      "     witness verification, out of memory after retries)\n"
      "  5  batch completed but some instances failed (each failure is\n"
      "     reported as a JSON error object with error_kind/attempts)\n"
      "  6  interrupted by SIGINT/SIGTERM (the in-flight instance still\n"
      "     emits best-so-far JSON with interrupted: true)\n";
}

Options parse_options(int argc, char** argv, bool& wants_help) {
  Options options;
  mc::LazyMCConfig& config = options.config;
  wants_help = false;
  auto value = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) fail("missing value for " + flag);
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        wants_help = true;
        return options;
      } else if (arg == "--graph") {
        options.graph_specs.push_back(value(i, arg));
      } else if (arg == "--manifest") {
        options.manifest_path = value(i, arg);
      } else if (arg == "--solver") {
        const std::string name = value(i, arg);
        const std::optional<Solver> solver = from_name(kSolverNames, name);
        if (!solver) fail("unknown solver '" + name + "'");
        options.solver = *solver;
      } else if (arg == "--order") {
        config.vertex_order =
            parse_enum(mc::kVertexOrderNames, value(i, arg), "vertex order");
      } else if (arg == "--rep") {
        config.neighborhood_rep =
            parse_enum(kNeighborhoodRepNames, value(i, arg), "representation");
      } else if (arg == "--bitset-budget-mb") {
        config.bitset_budget_bytes = parse_count(arg, value(i, arg)) << 20;
      } else if (arg == "--pre-density") {
        config.pre_extraction_density = true;
      } else if (arg == "--split") {
        config.split_mode =
            parse_enum(mc::kSplitModeNames, value(i, arg), "split mode");
      } else if (arg == "--split-depth") {
        config.split_depth =
            static_cast<unsigned>(parse_count(arg, value(i, arg)));
      } else if (arg == "--split-min-cands") {
        config.split_min_cands =
            static_cast<VertexId>(parse_count(arg, value(i, arg)));
      } else if (arg == "--split-min-work") {
        config.split_min_work = parse_count(arg, value(i, arg));
      } else if (arg == "--kernels") {
        // "auto" forces nothing: the best tier of build and CPU runs.
        const std::string name = value(i, arg);
        config.kernel_tier = simd::tier_from_name(name);
        if (name != "auto" && !config.kernel_tier) {
          fail("unknown kernel tier '" + name + "' (expected auto|" +
               name_list(simd::kTierNames) + ")");
        }
      } else if (arg == "--threads") {
        options.threads = parse_count(arg, value(i, arg));
      } else if (arg == "--time-limit") {
        config.time_limit_seconds = parse_seconds(arg, value(i, arg));
      } else if (arg == "--json") {
        options.json = true;
      } else if (arg == "--journal") {
        options.journal_path = value(i, arg);
      } else if (arg == "--resume") {
        options.resume = true;
      } else if (arg == "--retries") {
        options.retries = parse_count(arg, value(i, arg));
      } else if (arg == "--fault") {
        options.fault_specs.push_back(value(i, arg));
      } else {
        fail("unknown argument '" + arg + "'");
      }
    }
    if (options.graph_specs.empty() && options.manifest_path.empty()) {
      fail("--graph or --manifest is required");
    }
    if (options.resume && options.journal_path.empty()) {
      fail("--resume requires --journal (there is nothing to resume from)");
    }
  } catch (const Error& e) {
    throw Error(ErrorKind::kInput, std::string(e.what()) + "\n\n" + usage());
  }
  return options;
}

}  // namespace lazymc::cli
