// lazymc-trace: the traced driver of the suite-level solve benchmark
// (solvebench/run.py).
//
// Runs LazyMC (mc::lazy_mc, Algorithm 1) step by step through each
// module's public functions, in lazy_mc's order, and records a span
// around every step: graph load, degree heuristic, k-core + order, lazy
// graph build, coreness heuristic, systematic search.  A span carries
// its name, start, end, parent, instance id and the process CPU time
// spent inside it.  Spans stay in memory and are written to --trace-out
// when the driver exits.
//
//   lazymc-trace --build-info
//   lazymc-trace --threads N --reps R --trace-out FILE GRAPH...
//
// For every GRAPH (a file or gen: spec, loaded once):
//   guard  at one thread, mc::lazy_mc and the traced pipeline must agree
//          on omega and on every funnel, kernel, row and node counter
//          (these repeat exactly at one thread, not at several);
//   timed  R rounds at N threads, each an untraced mc::lazy_mc solve
//          followed by a traced one, so traced minus untraced is the
//          cost of tracing.
// One JSON line per graph goes to stdout.  Exits 0 when every guard held
// and every clique verified, 1 when one did not, 3 on bad arguments or
// an unreadable graph.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli/graph_source.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "mc/heuristic.hpp"
#include "mc/incumbent.hpp"
#include "mc/lazymc.hpp"
#include "mc/neighbor_search.hpp"
#include "support/control.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"

#ifndef SOLVEBENCH_BUILD_TYPE
#define SOLVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lazymc;

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

/// In-memory span log.  The caller sets which instance, pass and round
/// the next spans belong to; open/close stamp wall and process CPU time.
class Tracer {
 public:
  void set_context(int instance, const char* pass, int rep) {
    instance_ = instance;
    pass_ = pass;
    rep_ = rep;
  }

  int open(const char* name, int parent) {
    spans_.push_back({name, pass_, instance_, rep_, parent, wall_ns(), 0,
                      cpu_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = wall_ns();
    s.cpu_end_ns = cpu_ns();
  }

  /// One JSON object per line; times in seconds since the first span.
  void write(std::ostream& out) const {
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonWriter w(out);
      w.open();
      w.field("id", i);
      w.field("name", s.name);
      w.field("pass", s.pass);
      w.field("instance", s.instance);
      w.field("rep", s.rep);
      w.field("parent", s.parent);
      w.field("start_s", static_cast<double>(s.start_ns - origin) * 1e-9);
      w.field("end_s", static_cast<double>(s.end_ns - origin) * 1e-9);
      w.field("cpu_s",
              static_cast<double>(s.cpu_end_ns - s.cpu_start_ns) * 1e-9);
      w.close();
      out << '\n';
    }
  }

 private:
  struct Span {
    const char* name;
    const char* pass;
    int instance;
    int rep;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t cpu_start_ns;
    std::int64_t cpu_end_ns;
  };

  std::vector<Span> spans_;
  int instance_ = 0;
  const char* pass_ = "";
  int rep_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Same snapshot lazy_mc takes of its SearchStats at the end of a solve.
mc::SearchStatsSnapshot snapshot(const mc::SearchStats& stats) {
  mc::SearchStatsSnapshot s;
  s.evaluated = stats.evaluated.load();
  s.pass_filter1 = stats.pass_filter1.load();
  s.pass_filter2 = stats.pass_filter2.load();
  s.pass_filter3 = stats.pass_filter3.load();
  s.solved_mc = stats.solved_mc.load();
  s.solved_vc = stats.solved_vc.load();
  s.vc_fallbacks = stats.vc_fallbacks.load();
  s.retired_chunks = stats.retired_chunks.load();
  s.kernel_merge = stats.kernels.merge.load();
  s.kernel_gallop = stats.kernels.gallop.load();
  s.kernel_hash = stats.kernels.hash.load();
  s.kernel_hash_batched = stats.kernels.hash_batched.load();
  s.kernel_bitset_probe = stats.kernels.bitset_probe.load();
  s.kernel_bitset_word = stats.kernels.bitset_word.load();
  s.kernel_array_gallop = stats.kernels.array_gallop.load();
  s.kernel_run_and = stats.kernels.run_and.load();
  s.filter_seconds = stats.filter_seconds();
  s.mc_seconds = stats.mc_seconds();
  s.vc_seconds = stats.vc_seconds();
  s.mc_nodes = stats.mc_nodes.load();
  s.vc_nodes = stats.vc_nodes.load();
  return s;
}

/// mc::lazy_mc for the configuration `lazymc` runs by default — coreness
/// order, auto representation, no forced kernel tier — with one span per
/// step under `parent`.
mc::LazyMCResult traced_lazy_mc(const Graph& g, const mc::LazyMCConfig& config,
                                Tracer& tracer, int parent) {
  mc::LazyMCResult result;
  if (g.num_vertices() == 0) return result;

  SolveControl control(config.time_limit_seconds);
  mc::SearchStats stats;
  mc::IntersectPolicy policy{config.early_exit_intersections,
                             config.second_exit};
  policy.counters = &stats.kernels;
  Incumbent incumbent;
  mc::HeuristicOptions heuristic;
  heuristic.top_k = config.heuristic_top_k;
  heuristic.intersect = policy;
  heuristic.control = &control;

  {
    ScopedSpan span(tracer, "mc.degree_heuristic", parent);
    mc::degree_based_heuristic(g, incumbent, heuristic);
  }
  result.heuristic_degree_omega = incumbent.size();

  const mc::PrebuiltGraph* pre = config.prebuilt;
  const bool use_prebuilt = pre && pre->order && pre->coreness &&
                            pre->order->size() == g.num_vertices() &&
                            pre->coreness->size() == g.num_vertices();
  kcore::CoreDecomposition core;
  kcore::VertexOrder order;
  const kcore::VertexOrder* order_ref = &order;
  const std::vector<VertexId>* coreness_ref = &core.coreness;
  {
    ScopedSpan span(tracer, "kcore", parent);
    if (use_prebuilt) {
      order_ref = pre->order;
      coreness_ref = pre->coreness;
      result.degeneracy = pre->degeneracy;
    } else {
      core = kcore::coreness_lower_bounded(g, incumbent.size());
      order = kcore::order_by_coreness_degree_parallel(g, core.coreness);
      result.degeneracy = core.degeneracy;
    }
  }

  std::optional<LazyGraph> lazy;
  {
    ScopedSpan span(tracer, "lazygraph.build", parent);
    lazy.emplace(g, *order_ref, *coreness_ref, &incumbent.size_atomic());
    lazy->set_preferred_rep(config.neighborhood_rep);
    bool adopted = false;
    if (use_prebuilt && pre->rows.valid() && config.bitset_budget_bytes > 0) {
      adopted = lazy->adopt_prebuilt_rows(pre->rows, /*hybrid=*/false);
    }
    if (!adopted && config.bitset_budget_bytes > 0) {
      lazy->enable_bitset_rows(config.bitset_budget_bytes);
    }
    lazy->prepopulate(config.prepopulate, incumbent.size());
  }

  {
    ScopedSpan span(tracer, "mc.coreness_heuristic", parent);
    mc::coreness_based_heuristic(*lazy, incumbent, heuristic);
  }
  result.heuristic_coreness_omega = incumbent.size();

  {
    ScopedSpan span(tracer, "mc.systematic", parent);
    mc::NeighborSearchOptions n;
    n.density_threshold = config.density_threshold;
    n.degree_filter_rounds = config.degree_filter_rounds;
    n.color_prune = config.color_prune;
    n.vc_node_budget_per_vertex = config.vc_node_budget_per_vertex;
    n.pre_extraction_density = config.pre_extraction_density;
    n.split_mode = config.split_mode;
    n.split_min_cands = config.split_min_cands;
    n.split_depth = config.split_depth;
    n.split_min_work = config.split_min_work;
    n.intersect = policy;
    n.control = &control;
    mc::systematic_search(*lazy, incumbent, n, stats);
  }

  result.clique = incumbent.snapshot();
  std::sort(result.clique.begin(), result.clique.end());
  result.omega = static_cast<VertexId>(result.clique.size());
  result.timed_out = control.cancelled();
  result.search = snapshot(stats);
  result.lazy_graph = lazy->stats();
  return result;
}

/// The counters the equivalence guard compares: every one is exact at a
/// single thread.
std::vector<std::pair<const char*, std::uint64_t>> guarded_counts(
    const mc::LazyMCResult& r) {
  const mc::SearchStatsSnapshot& s = r.search;
  const LazyGraph::Stats& l = r.lazy_graph;
  return {
      {"omega", r.omega},
      {"heuristic_degree_omega", r.heuristic_degree_omega},
      {"heuristic_coreness_omega", r.heuristic_coreness_omega},
      {"degeneracy", r.degeneracy},
      {"evaluated", s.evaluated},
      {"pass_filter1", s.pass_filter1},
      {"pass_filter2", s.pass_filter2},
      {"pass_filter3", s.pass_filter3},
      {"solved_mc", s.solved_mc},
      {"solved_vc", s.solved_vc},
      {"vc_fallbacks", s.vc_fallbacks},
      {"mc_nodes", s.mc_nodes},
      {"vc_nodes", s.vc_nodes},
      {"kernel_merge", s.kernel_merge},
      {"kernel_gallop", s.kernel_gallop},
      {"kernel_hash", s.kernel_hash},
      {"kernel_hash_batched", s.kernel_hash_batched},
      {"kernel_bitset_probe", s.kernel_bitset_probe},
      {"kernel_bitset_word", s.kernel_bitset_word},
      {"kernel_array_gallop", s.kernel_array_gallop},
      {"kernel_run_and", s.kernel_run_and},
      {"hash_built", l.hash_built},
      {"sorted_built", l.sorted_built},
      {"bitset_built", l.bitset_built},
      {"rows_prebuilt", l.rows_prebuilt},
      {"bitset_bytes", l.bitset_bytes},
      {"zone_size", l.zone_size},
      {"neighbors_kept", l.neighbors_kept},
      {"neighbors_filtered", l.neighbors_filtered},
  };
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(wall_ns() - start_ns) * 1e-9;
}

int print_build_info() {
  JsonWriter w(std::cout);
  w.open();
  w.field("build_type", SOLVEBENCH_BUILD_TYPE);
  w.field("simd_tier", simd::tier_name(simd::current_tier()));
#ifdef NDEBUG
  w.field("ndebug", true);
#else
  w.field("ndebug", false);
#endif
  w.close();
  std::cout << '\n';
  return 0;
}

int usage() {
  std::cerr << "usage: lazymc-trace --build-info\n"
               "       lazymc-trace --threads N --reps R --trace-out FILE "
               "GRAPH...\n";
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t threads = 0;
  int reps = 0;
  std::string trace_out;
  std::vector<std::string> specs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--build-info") return print_build_info();
    if (arg == "--threads" && has_value) {
      threads = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--reps" && has_value) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      specs.push_back(arg);
    } else {
      return usage();
    }
  }
  if (threads == 0 || reps <= 0 || trace_out.empty() || specs.empty()) {
    return usage();
  }

  Tracer tracer;
  bool all_ok = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const int instance = static_cast<int>(i);
    tracer.set_context(instance, "load", 0);
    cli::LoadedGraph loaded;
    try {
      ScopedSpan span(tracer, "graph.load", -1);
      loaded = cli::load_graph(specs[i]);
    } catch (const std::exception& e) {
      std::cerr << "lazymc-trace: " << specs[i] << ": " << e.what() << '\n';
      return 3;
    }
    const Graph& g = loaded.graph;
    mc::LazyMCConfig config;
    mc::PrebuiltGraph prebuilt;
    if (loaded.store && loaded.store->has_order()) {
      prebuilt.order = &loaded.store->order();
      prebuilt.coreness = &loaded.store->coreness();
      prebuilt.degeneracy = loaded.store->degeneracy();
      prebuilt.rows = loaded.store->rows();
      config.prebuilt = &prebuilt;
    }

    // Guard: one thread, untraced against traced.
    set_num_threads(1);
    const mc::LazyMCResult reference = mc::lazy_mc(g, config);
    tracer.set_context(instance, "guard", 0);
    mc::LazyMCResult guarded;
    {
      ScopedSpan span(tracer, "solve", -1);
      guarded = traced_lazy_mc(g, config, tracer, span.id());
    }
    const auto want = guarded_counts(reference);
    const auto got = guarded_counts(guarded);
    std::vector<std::string> mismatches;
    for (std::size_t k = 0; k < want.size(); ++k) {
      if (want[k].second != got[k].second) {
        mismatches.push_back(std::string(want[k].first) + " " +
                             std::to_string(want[k].second) + " != " +
                             std::to_string(got[k].second));
      }
    }
    bool verified = !reference.timed_out && !guarded.timed_out &&
                    is_clique(g, reference.clique) &&
                    is_clique(g, guarded.clique);

    // Timed rounds at the measured thread count.
    set_num_threads(threads);
    std::vector<double> untraced_s, traced_s, filter_s, mc_s, vc_s;
    std::vector<std::uint64_t> retired_chunks;
    for (int rep = 0; rep < reps; ++rep) {
      std::int64_t start = wall_ns();
      const mc::LazyMCResult plain = mc::lazy_mc(g, config);
      untraced_s.push_back(seconds_since(start));
      tracer.set_context(instance, "timed", rep);
      start = wall_ns();
      mc::LazyMCResult traced;
      {
        ScopedSpan span(tracer, "solve", -1);
        traced = traced_lazy_mc(g, config, tracer, span.id());
      }
      traced_s.push_back(seconds_since(start));
      filter_s.push_back(traced.search.filter_seconds);
      mc_s.push_back(traced.search.mc_seconds);
      vc_s.push_back(traced.search.vc_seconds);
      retired_chunks.push_back(traced.search.retired_chunks);
      verified = verified && plain.omega == reference.omega &&
                 traced.omega == reference.omega && !plain.timed_out &&
                 !traced.timed_out && is_clique(g, plain.clique) &&
                 is_clique(g, traced.clique);
    }
    all_ok = all_ok && verified && mismatches.empty();

    JsonWriter w(std::cout);
    w.open();
    w.field("graph", specs[i]);
    w.field("load_path", loaded.load_path);
    w.field("omega", reference.omega);
    w.field("verified", verified);
    w.open_array("mismatches");
    for (const std::string& m : mismatches) w.value(m);
    w.close_array();
    w.open("counts");
    for (const auto& [name, value] : got) w.field(name, value);
    w.field("retired_chunks", guarded.search.retired_chunks);
    w.close();
    w.open("timed");
    w.field("threads", threads);
    const auto array = [&w](const std::string& key,
                            const std::vector<double>& values) {
      w.open_array(key);
      for (double v : values) w.value(v);
      w.close_array();
    };
    array("untraced_s", untraced_s);
    array("traced_s", traced_s);
    array("filter_s", filter_s);
    array("mc_s", mc_s);
    array("vc_s", vc_s);
    w.field("retired_chunks", retired_chunks);
    w.close();
    w.close();
    std::cout << std::endl;
  }

  std::ofstream out(trace_out);
  tracer.write(out);
  out.close();
  if (!out) {
    std::cerr << "lazymc-trace: cannot write " << trace_out << '\n';
    return 3;
  }
  return all_ok ? 0 : 1;
}
