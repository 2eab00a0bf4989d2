// The solve report schema: every counter a LazyMC solve reports, declared
// once.  A list entry X(name, source, kind, line, "label", group, "key")
// declares the snapshot field `name` and where its value comes from:
//   kSum    a relaxed std::atomic<std::uint64_t> `source`, added to;
//   kMax    the same, raised or set once;
//   kBytes  a kSum counting bytes;
//   kSlot   a kSum held in `source`, an element of a hand-declared array;
//   kNanos  a nanosecond atomic `source`, read as double seconds through
//           the generated accessor name();
//   kSet    a field of type `source` that the solve assigns itself.
// The field prints as " label=value" on text `line` and under "key" in
// JSON `group`; each line and group lists its fields in visit order
// (PhaseTimes, LazyGraph::Stats, SearchStatsSnapshot; list order within
// each).  A new metric is one entry plus the code that bumps it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

/// Per-phase wall-clock seconds of lazy_mc (Fig. 2 / Fig. 7 stacks).
#define LAZYMC_PHASE_TIMES(X)                                                                  \
  X(degree_heuristic,   double, kSet, kPhases, "degree-heur",   kPhases, "degree_heuristic")   \
  X(preprocessing,      double, kSet, kPhases, "preprocess",    kPhases, "preprocessing")      \
  X(must_subgraph,      double, kSet, kPhases, "must-subgraph", kPhases, "must_subgraph")      \
  X(coreness_heuristic, double, kSet, kPhases, "coreness-heur", kPhases, "coreness_heuristic") \
  X(systematic,         double, kSet, kPhases, "systematic",    kPhases, "systematic")

/// Lazy-graph builds: bitset_degraded counts failed row allocations,
/// zone_size is 0 with rows off, hybrid fields split rows by container.
#define LAZYMC_LAZY_GRAPH_STATS(X)                                                                                             \
  X(hash_built,          hash_built,          kSum,   kLazy,        "hash-built",         kLazyGraph,    "hash_built")         \
  X(sorted_built,        sorted_built,        kSum,   kLazy,        "sorted-built",       kLazyGraph,    "sorted_built")       \
  X(bitset_built,        bitset_built,        kSum,   kLazy,        "bitset-built",       kLazyGraph,    "bitset_built")       \
  X(bitset_degraded,     bitset_degraded,     kSum,   kDegraded,    "bitset-rows",        kDegradations, "bitset_rows")        \
  X(rows_prebuilt,       rows_prebuilt,       kMax,   kLazy,        "rows-prebuilt",      kLazyGraph,    "rows_prebuilt")      \
  X(bitset_bytes,        bitset_bytes,        kBytes, kLazy,        "bitset-bytes",       kLazyGraph,    "bitset_bytes")       \
  X(zone_size,           zone_size,           kMax,   kLazy,        "zone",               kLazyGraph,    "zone_size")          \
  X(neighbors_kept,      neighbors_kept,      kSum,   kNeighbors,   "neighbors-kept",     kLazyGraph,    "neighbors_kept")     \
  X(neighbors_filtered,  neighbors_filtered,  kSum,   kNeighbors,   "neighbors-filtered", kLazyGraph,    "neighbors_filtered") \
  X(hybrid_rows_array,   hybrid_rows_array,   kSum,   kHybridRows,  "array",              kHybridRows,   "array")              \
  X(hybrid_rows_bitset,  hybrid_rows_bitset,  kSum,   kHybridRows,  "bitset",             kHybridRows,   "bitset")             \
  X(hybrid_rows_run,     hybrid_rows_run,     kSum,   kHybridRows,  "run",                kHybridRows,   "run")                \
  X(hybrid_array_bytes,  hybrid_array_bytes,  kBytes, kHybridBytes, "array",              kHybridRows,   "array_bytes")        \
  X(hybrid_bitset_bytes, hybrid_bitset_bytes, kBytes, kHybridBytes, "bitset",             kHybridRows,   "bitset_bytes")       \
  X(hybrid_run_bytes,    hybrid_run_bytes,    kBytes, kHybridBytes, "run",                kHybridRows,   "run_bytes")

/// SearchStats before its KernelCounters: the Table III funnel, the Fig. 3
/// route choice, scheduling, recovered allocation failures, and anytime.
#define LAZYMC_SEARCH_STATS(X)                                                                                                               \
  X(evaluated,              evaluated,                         kSum, kSearch,   "evaluated",        kSearch,       "evaluated")              \
  X(pass_filter1,           pass_filter1,                      kSum, kSearch,   "pass1",            kSearch,       "pass_filter1")           \
  X(pass_filter2,           pass_filter2,                      kSum, kSearch,   "pass2",            kSearch,       "pass_filter2")           \
  X(pass_filter3,           pass_filter3,                      kSum, kSearch,   "pass3",            kSearch,       "pass_filter3")           \
  X(solved_mc,              solved_mc,                         kSum, kSearch,   "solved-mc",        kSearch,       "solved_mc")              \
  X(solved_vc,              solved_vc,                         kSum, kSearch,   "solved-vc",        kSearch,       "solved_vc")              \
  X(vc_fallbacks,           vc_fallbacks,                      kSum, kSearch,   "vc-fallbacks",     kSearch,       "vc_fallbacks")           \
  X(retired_chunks,         retired_chunks,                    kSum, kSearch,   "retired-chunks",   kSearch,       "retired_chunks")         \
  X(split_tasks,            split_tasks,                       kSum, kSplit,    "tasks",            kSearch,       "split_tasks")            \
  X(retired_subtasks,       retired_subtasks,                  kSum, kSplit,    "retired-subtasks", kSearch,       "retired_subtasks")       \
  X(max_split_depth,        max_split_depth,                   kMax, kSplit,    "max-depth",        kSearch,       "max_split_depth")        \
  X(split_work_rejected,    split_work_rejected,               kSum, kSplit,    "work-rejected",    kSearch,       "split_work_rejected")    \
  X(degraded_wordsets,      degraded_wordsets,                 kSum, kDegraded, "wordsets",         kDegradations, "wordsets")               \
  X(degraded_splits,        degraded_splits,                   kSum, kDegraded, "splits",           kDegradations, "splits")                 \
  X(time_to_first_solution, double,                            kSet, kAnytime,  "first-solution",   kSearch,       "time_to_first_solution") \
  X(improvements,           std::vector<IncumbentImprovement>, kSet, kAnytime,  "improvements",     kSearch,       "improvements")

/// SearchStats after its KernelCounters (Fig. 3 work, Fig. 6 nodes).
#define LAZYMC_WORK_STATS(X)                                                          \
  X(filter_seconds, filter_ns, kNanos, kWork,  "filter",   kSearch, "filter_seconds") \
  X(mc_seconds,     mc_ns,     kNanos, kWork,  "mc",       kSearch, "mc_seconds")     \
  X(vc_seconds,     vc_ns,     kNanos, kWork,  "vc",       kSearch, "vc_seconds")     \
  X(mc_nodes,       mc_nodes,  kSum,   kNodes, "mc-nodes", kSearch, "mc_nodes")       \
  X(vc_nodes,       vc_nodes,  kSum,   kNodes, "vc-nodes", kSearch, "vc_nodes")

/// KernelCounters: dispatched intersections, and bitset_word calls by the
/// SIMD tier that ran them (word_tier is indexed by simd::Tier).
#define LAZYMC_KERNEL_STATS(X)                                                                    \
  X(kernel_merge,        merge,        kSum,  kKernels, "merge",        kKernels, "merge")        \
  X(kernel_gallop,       gallop,       kSum,  kKernels, "gallop",       kKernels, "gallop")       \
  X(kernel_hash,         hash,         kSum,  kKernels, "hash",         kKernels, "hash")         \
  X(kernel_hash_batched, hash_batched, kSum,  kKernels, "hash-batched", kKernels, "hash_batched") \
  X(kernel_bitset_probe, bitset_probe, kSum,  kKernels, "bitset-probe", kKernels, "bitset_probe") \
  X(kernel_bitset_word,  bitset_word,  kSum,  kKernels, "bitset-word",  kKernels, "bitset_word")  \
  X(kernel_array_gallop, array_gallop, kSum,  kKernels, "array-gallop", kKernels, "array_gallop") \
  X(kernel_run_and,      run_and,      kSum,  kKernels, "run-and",      kKernels, "run_and")      \
  X(simd_tier,           std::string,  kSet,  kSimd,    "simd-tier",    kKernels, "tier")         \
  X(kernel_word_scalar,  word_tier[0], kSlot, kSimd,    "word-scalar",  kKernels, "word_scalar")  \
  X(kernel_word_avx2,    word_tier[1], kSlot, kSimd,    "word-avx2",    kKernels, "word_avx2")    \
  X(kernel_word_avx512,  word_tier[2], kSlot, kSimd,    "word-avx512",  kKernels, "word_avx512")

/// Text lines in print order: X(line, "prefix", "suffix", "unit after real
/// values", gate: print always, if its numbers sum > 0, or like the last).
#define LAZYMC_TEXT_LINES(X)                                                                   \
  X(kPhases,      "phases (s):",     "\n",                                 "",  kAlways)       \
  X(kSearch,      "search:  ",       "\n",                                 "",  kAlways)       \
  X(kSplit,       "split:   ",       "\n",                                 "",  kAlways)       \
  X(kAnytime,     "anytime: ",       "\n",                                 "s", kIfAny)        \
  X(kDegraded,    "degraded:",       " (recovered allocation failures)\n", "",  kIfAny)        \
  X(kNodes,       "         ",       "",                                   "",  kAlways)       \
  X(kWork,        "",                "\n",                                 "s", kAlways)       \
  X(kKernels,     "kernels: ",       "\n",                                 "",  kAlways)       \
  X(kSimd,        "         ",       "\n",                                 "",  kAlways)       \
  X(kLazy,        "lazygraph:",      "\n",                                 "",  kAlways)       \
  X(kNeighbors,   "          ",      "\n",                                 "",  kAlways)       \
  X(kHybridRows,  "hybrid:   rows",  "\n",                                 "",  kIfAny)        \
  X(kHybridBytes, "          bytes", "\n",                                 "",  kWithPrevious)

/// JSON objects in print order: X(group, "key", nested in the one before).
#define LAZYMC_JSON_GROUPS(X)             \
  X(kPhases,       "phases",       false) \
  X(kSearch,       "search",       false) \
  X(kKernels,      "kernels",      true)  \
  X(kLazyGraph,    "lazy_graph",   false) \
  X(kHybridRows,   "hybrid_rows",  true)  \
  X(kDegradations, "degradations", false)

namespace lazymc::stats {

enum class Kind { kSum, kMax, kBytes, kSlot, kNanos, kSet };
enum class Gate { kAlways, kIfAny, kWithPrevious };
#define LAZYMC_STATS_ENUMERATOR(name, ...) name,
enum class Line { LAZYMC_TEXT_LINES(LAZYMC_STATS_ENUMERATOR) };
enum class Group { LAZYMC_JSON_GROUPS(LAZYMC_STATS_ENUMERATOR) };
#undef LAZYMC_STATS_ENUMERATOR

/// One entry, as the snapshots' for_each(fn) calls fn(Field, value).
struct Field {
  Kind kind;
  Line line;
  const char* label;  // text
  Group group;
  const char* key;    // JSON
};

}  // namespace lazymc::stats

// Expansion by kind, inside members of namespace lazymc whose parameter is
// `from` (LOAD), `other` (MERGE) or `fn` (VISIT).
#define LAZYMC_LIVE_FIELD(name, src, kind, ...) LAZYMC_LIVE_##kind(name, src)
#define LAZYMC_SNAPSHOT_FIELD(name, src, kind, ...) LAZYMC_SNAP_##kind(name, src)
#define LAZYMC_LOAD_FIELD(name, src, kind, ...) LAZYMC_LOAD_##kind(name, src)
#define LAZYMC_MERGE_FIELD(name, src, kind, ...) LAZYMC_MERGE_##kind(name)
#define LAZYMC_VISIT_FIELD(name, src, kind, line, label, group, key) \
  fn(stats::Field{stats::Kind::kind, stats::Line::line, label,        \
                  stats::Group::group, key},                          \
     name);

#define LAZYMC_LIVE_kSum(name, src) std::atomic<std::uint64_t> src{0};
#define LAZYMC_LIVE_kMax LAZYMC_LIVE_kSum
#define LAZYMC_LIVE_kBytes LAZYMC_LIVE_kSum
#define LAZYMC_LIVE_kSlot(name, src)
#define LAZYMC_LIVE_kNanos(name, src) \
  std::atomic<std::uint64_t> src{0};  \
  double name() const { return static_cast<double>(src.load()) * 1e-9; }
#define LAZYMC_LIVE_kSet(name, src)

#define LAZYMC_SNAP_kSum(name, src) std::uint64_t name = 0;
#define LAZYMC_SNAP_kMax LAZYMC_SNAP_kSum
#define LAZYMC_SNAP_kBytes LAZYMC_SNAP_kSum
#define LAZYMC_SNAP_kSlot LAZYMC_SNAP_kSum
#define LAZYMC_SNAP_kNanos(name, src) double name = 0;
#define LAZYMC_SNAP_kSet(name, type) type name{};

#define LAZYMC_LOAD_kSum(name, src) name = from.src.load();
#define LAZYMC_LOAD_kMax LAZYMC_LOAD_kSum
#define LAZYMC_LOAD_kBytes LAZYMC_LOAD_kSum
#define LAZYMC_LOAD_kSlot LAZYMC_LOAD_kSum
#define LAZYMC_LOAD_kNanos(name, src) name = from.name();
#define LAZYMC_LOAD_kSet(name, type)

#define LAZYMC_MERGE_kSum(name) name += other.name;
#define LAZYMC_MERGE_kBytes LAZYMC_MERGE_kSum
#define LAZYMC_MERGE_kMax(name) name = std::max(name, other.name);
