// Adaptive intersection-kernel dispatch plus the Fig. 5 ablation toggles.
//
// Every |A ∩ B| > θ question in the search funnels through IntersectPolicy,
// whose three entry points take B as a NeighborhoodView.  One routine
// (`dispatch`) inspects which representation B actually has (zone row /
// hopscotch set / sorted array) and the |A| vs |B| shape, bumps the
// matching counter, and routes to
//
//   bitset-word   — SparseWordSet x kBitset row, popcount per occupied
//                   word with the miss budget checked at word granularity
//                   (requires the caller-provided word form of A);
//   array-gallop  — word form of A x kArray row (element cursor), or
//                   binary-search probes of A into a much larger kArray
//                   row;
//   run-and       — word form of A x kRun row (span masks);
//   bitset-probe  — scalar probes against a kBitset or kRun row;
//   hash-batched  — prefetched batch probes into the hopscotch set
//                   (|A| >= kBatchMin, so the lookahead pays off);
//   hash          — serial hopscotch probes (small A);
//   gallop        — binary-search probes of A into a much larger sorted B;
//   merge         — linear merge of two comparably sized sorted arrays
//                   (a kArray row is one too).
//
// Each question supplies only its early-exit kernels for those routes
// (the Kernels structs below).  Each decision bumps a relaxed counter in
// `counters` (when wired) so reports can show where intersections
// actually ran.
//
// Ablation semantics: "no early exits" hands the kernels θ = -1, which
// makes every early-exit kernel exact, and compares the exact size with θ
// afterwards (intersect-size-gt-bool asks intersect-size-gt-val).  "No
// second exit" keeps only the failure exit of intersect-size-gt-bool.
// Neither toggle changes the route or the counters, only how early a
// kernel may return.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>

#include "intersect/intersect.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "support/simd.hpp"
#include "support/stats_schema.hpp"

namespace lazymc::mc {

/// Where dispatched intersections ran (relaxed; one bump per call; see
/// LAZYMC_KERNEL_STATS).  `word_tier[t]` splits the bitset_word count by
/// the SIMD tier that executed the call, so forced-tier A/B runs and the
/// reports can show which kernel generation did the work.
struct KernelCounters {
  LAZYMC_KERNEL_STATS(LAZYMC_LIVE_FIELD)
  std::atomic<std::uint64_t> word_tier[simd::kNumTiers]{};
};

struct IntersectPolicy {
  bool early_exits = true;
  bool second_exit = true;
  /// Dispatch counters; may be null (not counted).
  KernelCounters* counters = nullptr;

  // `a` must be sorted ascending (candidate sets are).  `a_words` is the
  // optional word-packed form of the same A; when present and B has a
  // zone row, the word-parallel kernels run.

  bool size_gt_bool(std::span<const VertexId> a, const NeighborhoodView& b,
                    std::int64_t theta,
                    const SparseWordSet* a_words = nullptr) const {
    if (!early_exits) return size_gt_val(a, b, theta, a_words) != kTooSmall;
    return dispatch(a, b, a_words, SizeGtBool{a, theta, second_exit});
  }

  int size_gt_val(std::span<const VertexId> a, const NeighborhoodView& b,
                  std::int64_t theta,
                  const SparseWordSet* a_words = nullptr) const {
    const int n = dispatch(a, b, a_words, SizeGtVal{a, kernel_theta(theta)});
    return n > theta ? n : kTooSmall;
  }

  int gt(std::span<const VertexId> a, const NeighborhoodView& b, VertexId* out,
         std::int64_t theta, const SparseWordSet* a_words = nullptr) const {
    const int n = dispatch(a, b, a_words, Gt{a, out, kernel_theta(theta)});
    return n > theta ? n : kTooSmall;
  }

 private:
  /// The threshold the kernels see: θ = -1 makes every early-exit kernel
  /// exact, which is the "no early exits" ablation.
  std::int64_t kernel_theta(std::int64_t theta) const {
    return early_exits ? theta : -1;
  }

  /// Picks B's representation and kernel shape, bumps the counter, and
  /// runs the matching kernel of `k`: words (word form of A x zone row),
  /// probe (scalar probes into a MembershipSet), array_merge (merge with
  /// a kArray row), hash_batched, or sorted_merge.  The route depends on
  /// |A|, B's representation and the word form only, never on θ.
  template <class Kernels>
  typename Kernels::Result dispatch(std::span<const VertexId> a,
                                    const NeighborhoodView& b,
                                    const SparseWordSet* a_words,
                                    const Kernels& k) const {
    if (b.has_row()) {
      const HybridRow& row = b.row();
      if (a_words && a_words->zone_begin() == row.zone_begin) {
        bump_container(row.kind);
        return k.words(*a_words, row);
      }
      // No word form of A: the array container is itself a sorted array,
      // so merge or gallop directly; bitset/run fall back to bit probes
      // (a kBitset row as a plain BitsetRow, so a probe is one bit test
      // with no per-element container switch).
      if (row.kind == RowContainer::kArray) {
        if (probe_beats_merge(a.size(), row.units)) {
          bump(&KernelCounters::array_gallop);
          return k.probe(HybridArrayLookup(row));
        }
        bump(&KernelCounters::merge);
        return k.array_merge(row);
      }
      bump(&KernelCounters::bitset_probe);
      return row.kind == RowContainer::kBitset ? k.probe(row.as_bitset())
                                               : k.probe(row);
    }
    if (b.is_hashed()) {
      const HopscotchSet& set = *b.hash_set();
      if (use_batch(a.size())) {
        bump(&KernelCounters::hash_batched);
        return k.hash_batched(set);
      }
      bump(&KernelCounters::hash);
      return k.probe(set);
    }
    const std::span<const VertexId> s = b.sorted();
    if (probe_beats_merge(a.size(), s.size())) {
      bump(&KernelCounters::gallop);
      return k.probe(SortedLookup(s));
    }
    bump(&KernelCounters::merge);
    return k.sorted_merge(s);
  }

  struct SizeGtBool {
    using Result = bool;
    std::span<const VertexId> a;
    std::int64_t theta;
    bool second_exit;

    bool words(const SparseWordSet& w, const HybridRow& row) const {
      return intersect_size_gt_bool(w, row, theta, second_exit);
    }
    template <MembershipSet SetB>
    bool probe(const SetB& set) const {
      return intersect_size_gt_bool(a, set, theta, second_exit);
    }
    bool array_merge(const HybridRow& row) const {
      return hybrid_array_size_gt_bool(a, row, theta, second_exit);
    }
    bool hash_batched(const HopscotchSet& set) const {
      return intersect_size_gt_bool_prefetch(a, set, theta, second_exit);
    }
    bool sorted_merge(std::span<const VertexId> s) const {
      return intersect_sorted_size_gt_bool(a, s, theta, second_exit);
    }
  };

  struct SizeGtVal {
    using Result = int;
    std::span<const VertexId> a;
    std::int64_t theta;

    int words(const SparseWordSet& w, const HybridRow& row) const {
      return intersect_size_gt_val(w, row, theta);
    }
    template <MembershipSet SetB>
    int probe(const SetB& set) const {
      return intersect_size_gt_val(a, set, theta);
    }
    int array_merge(const HybridRow& row) const {
      return hybrid_array_size_gt_val(a, row, theta);
    }
    int hash_batched(const HopscotchSet& set) const {
      return intersect_size_gt_val_prefetch(a, set, theta);
    }
    int sorted_merge(std::span<const VertexId> s) const {
      return intersect_sorted_size_gt_val(a, s, theta);
    }
  };

  struct Gt {
    using Result = int;
    std::span<const VertexId> a;
    VertexId* out;
    std::int64_t theta;

    int words(const SparseWordSet& w, const HybridRow& row) const {
      return intersect_gt(w, row, out, theta);
    }
    template <MembershipSet SetB>
    int probe(const SetB& set) const {
      return intersect_gt(a, set, out, theta);
    }
    int array_merge(const HybridRow& row) const {
      return hybrid_array_gt(a, row, out, theta);
    }
    int hash_batched(const HopscotchSet& set) const {
      return intersect_gt_prefetch(a, set, out, theta);
    }
    int sorted_merge(std::span<const VertexId> s) const {
      return intersect_sorted_gt(a, s, out, theta);
    }
  };

  /// Minimum |A| for batched hash probing (below this the lookahead is
  /// noise).
  static constexpr std::size_t kBatchMin = 2 * kProbeLookahead;
  /// Sorted-B shape switch: probe A into B (binary search) when
  /// |B| >= kProbeRatio * |A|, else merge linearly.
  static constexpr std::size_t kProbeRatio = 32;

  static bool use_batch(std::size_t a_size) { return a_size >= kBatchMin; }
  static bool probe_beats_merge(std::size_t a_size, std::size_t b_size) {
    return b_size >= kProbeRatio * std::max<std::size_t>(1, a_size);
  }
  void bump(std::atomic<std::uint64_t> KernelCounters::* member) const {
    if (counters) (counters->*member).fetch_add(1, std::memory_order_relaxed);
  }
  /// bitset-word calls also record the SIMD tier that will run them.
  void bump_word() const {
    if (!counters) return;
    counters->bitset_word.fetch_add(1, std::memory_order_relaxed);
    counters->word_tier[static_cast<std::size_t>(simd::current_tier())]
        .fetch_add(1, std::memory_order_relaxed);
  }
  /// Word-form dispatch against a hybrid row, counted per container.
  void bump_container(RowContainer kind) const {
    switch (kind) {
      case RowContainer::kBitset:
        bump_word();
        return;
      case RowContainer::kArray:
        bump(&KernelCounters::array_gallop);
        return;
      case RowContainer::kRun:
        bump(&KernelCounters::run_and);
        return;
    }
  }
};

}  // namespace lazymc::mc
