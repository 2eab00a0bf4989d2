// The lazy filtered hashed relabelled graph (paper Section IV-A,
// Algorithm 2).
//
// Design goals, quoting the paper:
//  * Relabelling: remap neighbor ids into the (coreness, degree) order
//    only when a neighborhood is first needed, memoizing the result.
//  * Lazy construction: never build neighborhoods for vertices the search
//    skips (most of the graph — Section III-A).
//  * Filtering: drop neighbors whose coreness is below the incumbent
//    clique size *at construction time*.  The zone of interest only
//    shrinks, so anything filtered now is irrelevant forever.
//  * Hashed sets: hopscotch sets enable O(|A|) intersections.
//
// Three neighborhood representations may exist per vertex:
//  * a hopscotch hash set (O(1) probes, ~6 bytes/neighbor),
//  * a sorted array (merge/galloping intersections, right-neighborhoods),
//  * a zone row (HybridRow, intersect/hybrid_row.hpp) over the *zone of
//    interest* — the suffix of relabelled ids whose coreness was >= the
//    incumbent when rows were enabled.  Rows turn |A ∩ B| > θ queries into
//    word-parallel kernels, capped by a global memory budget.  The row
//    policy picks each row's container: bitset-only (--rep auto|bitset)
//    packs every row as zone_size/8 bytes of words; hybrid (--rep hybrid)
//    stores each row as the cheapest of a sorted offset array, run spans
//    or the packed words.
//
// Any subset may have been built, each filtered against a possibly
// different incumbent size.  That is deliberate and safe: discrepancies
// involve only vertices that can no longer affect the search (Section
// IV-A); the zone rows' clipping is the same argument one step further
// (out-of-zone vertices had coreness below the incumbent at enable time).
//
// Thread-safety: any number of threads may call the accessors
// concurrently; construction is serialized per-vertex with double-checked
// locking (flag read with acquire, publish with release).
// enable_rows / adopt_prebuilt_rows / set_preferred_rep must be called
// before concurrent use begins.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "hashset/hopscotch_set.hpp"
#include "intersect/hybrid_row.hpp"
#include "kcore/order.hpp"
#include "support/check.hpp"
#include "support/names.hpp"
#include "support/spinlock.hpp"
#include "support/stats_schema.hpp"
#include "support/thread_annotations.hpp"

namespace lazymc {

/// Prepopulation policy for the Fig. 4 ablation.
enum class Prepopulate {
  kNone,          // fully lazy
  kMustSubgraph,  // default: prebuild hash sets for coreness >= threshold
  kAll,           // eager: prebuild every vertex's hash set
};

/// Which representation `membership()` builds when a vertex has none yet.
enum class NeighborhoodRep {
  kAuto,    // degree rule; prefer a zone row when it is cheap (default)
  kHash,    // always a hopscotch set
  kSorted,  // always a sorted array
  kBitset,  // a zone row whenever possible (zone + budget permitting)
  kHybrid,  // same, under the hybrid row policy (container per density)
};

/// The --rep / "rep" spellings.
inline constexpr Named<NeighborhoodRep> kNeighborhoodRepNames[] = {
    {"auto", NeighborhoodRep::kAuto},     {"hash", NeighborhoodRep::kHash},
    {"sorted", NeighborhoodRep::kSorted}, {"bitset", NeighborhoodRep::kBitset},
    {"hybrid", NeighborhoodRep::kHybrid},
};

/// A membership view over whichever representations a vertex has.
/// Satisfies the MembershipSet concept used by the intersection kernels;
/// the adaptive dispatcher (mc::IntersectPolicy) inspects the individual
/// representations to pick a kernel.
class NeighborhoodView {
 public:
  NeighborhoodView(const HopscotchSet* hash, std::span<const VertexId> sorted,
                   HybridRow row = {})
      : hash_(hash), sorted_(sorted), row_(row) {}

  bool contains(VertexId v) const;
  std::size_t size() const {
    if (hash_) return hash_->size();
    if (!sorted_.empty()) return sorted_.size();
    return row_.size();
  }
  bool is_hashed() const { return hash_ != nullptr; }
  const HopscotchSet* hash_set() const { return hash_; }
  std::span<const VertexId> sorted() const { return sorted_; }
  bool has_row() const { return row_.valid(); }
  const HybridRow& row() const { return row_; }

 private:
  const HopscotchSet* hash_;  // preferred when present
  std::span<const VertexId> sorted_;
  HybridRow row_;
};

class LazyGraph {
 public:
  /// Degree above which the "either representation" accessor builds a hash
  /// set rather than a sorted array (paper Section IV-A: "degree over 16").
  static constexpr VertexId kHashDegreeThreshold = 16;

  /// `incumbent_size` is read (relaxed) every time a neighborhood is
  /// constructed; it must outlive the LazyGraph and only ever increase.
  LazyGraph(const Graph& g, const kcore::VertexOrder& order,
            const std::vector<VertexId>& coreness_orig,
            const std::atomic<VertexId>* incumbent_size);

  VertexId num_vertices() const { return n_; }

  /// Coreness of relabelled vertex v.
  VertexId coreness(VertexId v) const { return coreness_new_[v]; }

  /// Degree of relabelled vertex v in the *original* (unfiltered) graph.
  VertexId original_degree(VertexId v) const {
    return base_->degree(order_->new_to_orig[v]);
  }

  const kcore::VertexOrder& order() const { return *order_; }
  const Graph& base_graph() const { return *base_; }

  /// GetHashedNeighborhood (Algorithm 2): builds on first use.
  const HopscotchSet& hashed_neighborhood(VertexId v);

  /// Sorted filtered relabelled neighborhood; builds on first use.
  std::span<const VertexId> sorted_neighborhood(VertexId v);

  /// Right-neighborhood N+(v) = {u in N(v) filtered : u > v}, a suffix of
  /// the sorted representation.
  std::span<const VertexId> right_neighborhood(VertexId v);

  /// "Either representation" accessor: returns whatever exists (all built
  /// forms are exposed so the kernel dispatcher can choose); if nothing
  /// exists, builds one according to the preferred representation.
  NeighborhoodView membership(VertexId v);

  /// True when the respective representation has been constructed.
  bool has_hashed(VertexId v) const {
    return flags_[v].load(std::memory_order_acquire) & kHashBuilt;
  }
  bool has_sorted(VertexId v) const {
    return flags_[v].load(std::memory_order_acquire) & kSortedBuilt;
  }
  bool has_row(VertexId v) const {
    return flags_[v].load(std::memory_order_acquire) & kRowBuilt;
  }

  // ---- zone rows ---------------------------------------------------------

  /// Fixes the zone of interest to the relabelled ids whose coreness is >=
  /// the incumbent *now* and allows zone rows to be built for them under
  /// the row policy, up to `budget_bytes` of total memory (the O(zone) row
  /// pointers and popcounts allocated here are charged against the
  /// budget, the rest caps row storage).  Rows are carved from one slab
  /// arena with per-container byte accounting, so under the hybrid policy
  /// a budget that starves an all-bitset zone can still keep most rows on
  /// the word kernels.  Call once, before the graph is used concurrently;
  /// a no-op when rows are already enabled, the zone is empty or the
  /// bookkeeping alone would bust the budget.
  ///
  /// The row policy picks each row's container.  Bitset-only (hybrid =
  /// false; --rep auto|bitset) makes every row a kBitset container of
  /// packed words, an empty row included.  Hybrid (--rep hybrid) stores
  /// each row as the cheapest container for its density: a sorted u32
  /// offset array (in-zone degree <= 4096 and smaller than the packed
  /// words), run-length spans (at least 2x smaller than the best dense
  /// alternative), or the packed words; an empty row carves nothing.
  void enable_rows(std::size_t budget_bytes, bool hybrid);

  /// enable_rows under the bitset-only policy.
  void enable_bitset_rows(std::size_t budget_bytes) {
    enable_rows(budget_bytes, /*hybrid=*/false);
  }

  bool rows_enabled() const { return rows_enabled_; }
  /// First relabelled id inside the zone (zone = [zone_begin, n)).
  VertexId zone_begin() const { return zone_begin_; }
  /// Zone size in vertices (= bits per row).
  VertexId zone_size() const { return zone_bits_; }

  /// Adopts a block of prebuilt zone rows (the binary graph store's
  /// mmap'ed row section) instead of building rows into the slab arena:
  /// every in-zone vertex is immediately marked built, pointing straight
  /// at the caller's storage — zero copies, zero arena carves, and
  /// stats().bitset_built stays 0 for adopted rows.
  ///
  /// Each prebuilt row is a packed bitset, i.e. a kBitset container under
  /// either policy, so --rep bitset and --rep hybrid solves consume the
  /// same store through the same view; `hybrid` names the caller's policy
  /// and changes neither the view nor any counter.
  ///
  /// Returns false — leaving the graph untouched, lazy building still
  /// available — when rows are already enabled, `rows` is malformed for
  /// this graph (zone not the suffix [zone_begin, n), stride too small /
  /// unaligned), or the stored zone does not cover the zone the current
  /// incumbent implies (some vertex with coreness >= incumbent lies
  /// before the stored zone_begin; its bits would be missing from every
  /// row, which is NOT covered by the heterogeneous-incumbent invariant).
  ///
  /// Lifetime: the caller keeps the backing storage alive for this
  /// graph's lifetime.  Call before concurrent use, like enable_rows.
  bool adopt_prebuilt_rows(const PrebuiltRows& rows, bool hybrid);

  /// The zone row of v; builds on first use.  Invalid when rows are
  /// disabled, v lies outside the zone, the budget is exhausted or the
  /// build degraded.
  HybridRow zone_row(VertexId v);

  /// Representation `membership()` builds when a vertex has none.
  void set_preferred_rep(NeighborhoodRep rep) { rep_ = rep; }
  NeighborhoodRep preferred_rep() const { return rep_; }

  /// Prebuilds neighborhoods according to `policy`; the must-subgraph
  /// policy builds vertices with coreness >= threshold (paper Section V-C:
  /// the must subgraph w.r.t. the incumbent found by degree-based
  /// heuristic search).  The representation follows the preferred-rep
  /// rule (zone rows when enabled and cheap).  Runs in parallel.
  void prepopulate(Prepopulate policy, VertexId must_threshold);

  /// Instrumentation (LAZYMC_LAZY_GRAPH_STATS in support/stats_schema.hpp).
  struct Stats {
    LAZYMC_LAZY_GRAPH_STATS(LAZYMC_SNAPSHOT_FIELD)
    template <class Live>  // LazyGraph's private Counters
    void load(const Live& from) {
      LAZYMC_LAZY_GRAPH_STATS(LAZYMC_LOAD_FIELD)
    }
    Stats& operator+=(const Stats& other) {
      LAZYMC_LAZY_GRAPH_STATS(LAZYMC_MERGE_FIELD)
      return *this;
    }
    template <class F>
    void for_each(F&& fn) const {
      LAZYMC_LAZY_GRAPH_STATS(LAZYMC_VISIT_FIELD)
    }
  };
  Stats stats() const;

 private:
  static constexpr std::uint8_t kHashBuilt = 1;
  static constexpr std::uint8_t kSortedBuilt = 2;
  static constexpr std::uint8_t kRowBuilt = 4;

  /// Builds the filtered relabelled neighbor list of v (unsorted).
  std::vector<VertexId> filtered_neighbors(VertexId v) const;

  void build_hash(VertexId v);
  void build_sorted(VertexId v);
  /// Attempts to build v's zone row under the row policy (budget
  /// permitting); the kRowBuilt flag reports success.
  void build_row(VertexId v);
  /// Zone fixing + arena setup for enable_rows.  Returns false when the
  /// zone is empty or the bookkeeping alone would bust the budget.
  bool init_zone(std::size_t budget_bytes);

  /// Whether the auto rule prefers a zone row for v: enabled, in zone,
  /// budget not exhausted, and the worst-case row build cost (zone_words
  /// memset) is within a small factor of the hash-set build cost (degree
  /// inserts).
  bool auto_wants_row(VertexId v, VertexId degree) const {
    return rows_enabled_ && v >= zone_begin_ &&
           !rows_exhausted_.load(std::memory_order_relaxed) &&
           row_words_ <= std::max<std::size_t>(64, 4 * std::size_t{degree});
  }

  HybridRow row_view(VertexId v) const {
    LAZYMC_ASSERT(v >= zone_begin_ && v - zone_begin_ < zone_bits_,
                  "zone row requested for a vertex outside the zone of "
                  "interest");
    const VertexId i = v - zone_begin_;
    return HybridRow{row_ptr_[i],    zone_begin_,   zone_bits_,
                     row_count_[i],  row_units_[i],
                     static_cast<RowContainer>(row_kind_[i])};
  }

  /// Takes `words` from the global row budget; on a shortfall, puts them
  /// back, marks the budget exhausted and returns false.
  bool reserve_row_words(std::size_t words);
  void refund_row_words(std::size_t words) {
    row_budget_words_.fetch_add(static_cast<std::int64_t>(words),
                                std::memory_order_relaxed);
  }

  /// Reserves `stride_words` (a multiple of 8, so every carve starts on a
  /// cache line) from the shared arena: pointer bump under a spinlock, a
  /// new slab when the current one cannot fit the request.  Caller fills
  /// outside the lock.  Only called after the global word budget admitted
  /// the carve; an abandoned slab tail is charged to the budget as waste
  /// so total arena allocation stays within the cap.
  std::uint64_t* carve(std::size_t stride_words);

  const Graph* base_;
  const kcore::VertexOrder* order_;
  const std::atomic<VertexId>* incumbent_size_;
  VertexId n_;
  std::vector<VertexId> coreness_new_;  // indexed by relabelled id

  std::vector<std::atomic<std::uint8_t>> flags_;
  std::unique_ptr<SpinLock[]> locks_;
  std::vector<HopscotchSet> hash_;
  std::vector<std::vector<VertexId>> sorted_;
  std::vector<std::uint32_t> right_begin_;  // index into sorted_[v] where u > v

  // zone rows (zone-indexed: entry i is relabelled vertex zone_begin_+i)
  NeighborhoodRep rep_ = NeighborhoodRep::kAuto;
  bool rows_enabled_ = false;
  bool hybrid_rows_ = false;  // row policy (enable_rows)
  VertexId zone_begin_ = 0;
  VertexId zone_bits_ = 0;
  std::size_t row_words_ = 0;
  std::atomic<std::int64_t> row_budget_words_{0};
  std::atomic<bool> rows_exhausted_{false};
  // Row storage: one shared arena of slab allocations carved per row,
  // instead of one heap vector per row — a built row costs 8 bytes of
  // bookkeeping (its pointer) plus its share of a slab, and concurrent
  // row builds touch the allocator ~once per slab rather than per row.
  // Slabs are 64-byte aligned and rows are carved at a 64-byte stride
  // (row_stride_words_, row_words_ rounded up to 8), so every row starts
  // on a cache-line boundary and aligned SIMD loads stay legal.  Rows
  // live as long as the graph; nothing is freed individually.
  std::size_t row_stride_words_ = 0;
  SpinLock arena_lock_;
  std::vector<simd::AlignedWords> row_slabs_ LAZYMC_GUARDED_BY(arena_lock_);
  std::uint64_t* slab_cursor_ LAZYMC_GUARDED_BY(arena_lock_) = nullptr;
  std::size_t slab_words_left_ LAZYMC_GUARDED_BY(arena_lock_) = 0;
  // Slab size, a multiple of the row stride.
  std::size_t slab_words_ LAZYMC_GUARDED_BY(arena_lock_) = 0;
  // Arena accounting (mutated under arena_lock_; atomic so stats() and the
  // checked-mode drift assert can read without the lock):
  //   total  = sum of allocated slab sizes,
  //   carved = words handed out to rows,
  //   waste  = abandoned slab tails (variable-stride carving only),
  // with total == carved + waste + slab_words_left_ at all times.
  std::atomic<std::size_t> arena_total_words_{0};
  std::atomic<std::size_t> arena_carved_words_{0};
  std::atomic<std::size_t> arena_waste_words_{0};
  std::vector<const std::uint64_t*> row_ptr_;  // null until built
  std::vector<std::uint32_t> row_count_;
  // Container metadata (HybridRow::units / kind).
  std::vector<std::uint32_t> row_units_;
  std::vector<std::uint8_t> row_kind_;

  // Stats counters (relaxed).
  struct Counters {
    LAZYMC_LAZY_GRAPH_STATS(LAZYMC_LIVE_FIELD)
  };
  mutable Counters stat_;
};

}  // namespace lazymc
