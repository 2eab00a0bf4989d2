// Adaptive intersection-kernel dispatch plus the Fig. 5 ablation toggles.
//
// Every |A ∩ B| > θ question in the search funnels through IntersectPolicy.
// The template methods keep the original behavior for an explicit
// membership structure B (tests, the gallop route's SortedLookup); the
// NeighborhoodView overloads are the *adaptive dispatcher*: one routine
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
// Each overload supplies only its kernels for those routes (the Kernels
// structs below).  Each decision bumps a relaxed counter in `counters`
// (when wired) so reports can show where intersections actually ran.
//
// Ablation semantics are unchanged: "no early exits" runs the chosen
// representation's exact kernel and compares afterwards; "no second exit"
// keeps only the failure exit of intersect-size-gt-bool.
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

  // ---- explicit-representation methods (original behavior) ---------------

  /// intersect-gt under the policy: result set when size > theta.
  template <MembershipSet SetB>
  int gt(std::span<const VertexId> a, const SetB& b, VertexId* out,
         std::int64_t theta) const {
    if (early_exits) return intersect_gt(a, b, out, theta);
    int n = static_cast<int>(intersect_hash(a, b, out));
    return n > theta ? n : kTooSmall;
  }

  /// intersect-size-gt-val under the policy.
  template <MembershipSet SetB>
  int size_gt_val(std::span<const VertexId> a, const SetB& b,
                  std::int64_t theta) const {
    if (early_exits) return intersect_size_gt_val(a, b, theta);
    int n = static_cast<int>(intersect_size(a, b));
    return n > theta ? n : kTooSmall;
  }

  /// intersect-size-gt-bool under the policy.
  template <MembershipSet SetB>
  bool size_gt_bool(std::span<const VertexId> a, const SetB& b,
                    std::int64_t theta) const {
    if (!early_exits) {
      return static_cast<std::int64_t>(intersect_size(a, b)) > theta;
    }
    return intersect_size_gt_bool(a, b, theta, second_exit);
  }

  // ---- adaptive dispatch over a NeighborhoodView --------------------------
  // `a` must be sorted ascending (candidate sets are).  `a_words` is the
  // optional word-packed form of the same A; when present and B has a
  // zone row, the word-parallel kernels run.

  bool size_gt_bool(std::span<const VertexId> a, const NeighborhoodView& b,
                    std::int64_t theta,
                    const SparseWordSet* a_words = nullptr) const {
    return dispatch(a, b, a_words, SizeGtBool{this, a, theta});
  }

  int size_gt_val(std::span<const VertexId> a, const NeighborhoodView& b,
                  std::int64_t theta,
                  const SparseWordSet* a_words = nullptr) const {
    return dispatch(a, b, a_words, SizeGtVal{this, a, theta});
  }

  int gt(std::span<const VertexId> a, const NeighborhoodView& b, VertexId* out,
         std::int64_t theta, const SparseWordSet* a_words = nullptr) const {
    return dispatch(a, b, a_words, Gt{this, a, out, theta});
  }

 private:
  /// Picks B's representation and kernel shape, bumps the counter, and
  /// runs the matching kernel of `k`: words (word form of A x zone row),
  /// probe (scalar probes into a MembershipSet), array_merge (merge with
  /// a kArray row), hash_batched, or sorted_merge.
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

  /// |A ∩ row| by probing, for the exact (no early exit) array merge.
  static std::int64_t array_count(std::span<const VertexId> a,
                                  const HybridRow& row) {
    std::int64_t n = 0;
    for (VertexId v : a) n += row.contains(v) ? 1 : 0;
    return n;
  }

  struct SizeGtBool {
    using Result = bool;
    const IntersectPolicy* p;
    std::span<const VertexId> a;
    std::int64_t theta;

    bool words(const SparseWordSet& w, const HybridRow& row) const {
      if (!p->early_exits) {
        return static_cast<std::int64_t>(intersect_size(w, row)) > theta;
      }
      return intersect_size_gt_bool(w, row, theta, p->second_exit);
    }
    template <MembershipSet SetB>
    bool probe(const SetB& set) const {
      return p->size_gt_bool(a, set, theta);
    }
    bool array_merge(const HybridRow& row) const {
      if (!p->early_exits) {
        return array_count(a, row) > theta;
      }
      return hybrid_array_size_gt_bool(a, row, theta, p->second_exit);
    }
    bool hash_batched(const HopscotchSet& set) const {
      if (!p->early_exits) {
        return static_cast<std::int64_t>(intersect_size_prefetch(a, set)) >
               theta;
      }
      return intersect_size_gt_bool_prefetch(a, set, theta, p->second_exit);
    }
    bool sorted_merge(std::span<const VertexId> s) const {
      if (!p->early_exits) {
        return static_cast<std::int64_t>(intersect_sorted_size(a, s)) > theta;
      }
      return intersect_sorted_size_gt_bool(a, s, theta, p->second_exit);
    }
  };

  struct SizeGtVal {
    using Result = int;
    const IntersectPolicy* p;
    std::span<const VertexId> a;
    std::int64_t theta;

    int exact(std::int64_t n) const {
      return n > theta ? static_cast<int>(n) : kTooSmall;
    }
    int words(const SparseWordSet& w, const HybridRow& row) const {
      if (!p->early_exits) {
        return exact(static_cast<std::int64_t>(intersect_size(w, row)));
      }
      return intersect_size_gt_val(w, row, theta);
    }
    template <MembershipSet SetB>
    int probe(const SetB& set) const {
      return p->size_gt_val(a, set, theta);
    }
    int array_merge(const HybridRow& row) const {
      if (!p->early_exits) {
        return exact(array_count(a, row));
      }
      return hybrid_array_size_gt_val(a, row, theta);
    }
    int hash_batched(const HopscotchSet& set) const {
      if (!p->early_exits) {
        return exact(
            static_cast<std::int64_t>(intersect_size_prefetch(a, set)));
      }
      return intersect_size_gt_val_prefetch(a, set, theta);
    }
    int sorted_merge(std::span<const VertexId> s) const {
      if (!p->early_exits) {
        return exact(static_cast<std::int64_t>(intersect_sorted_size(a, s)));
      }
      return intersect_sorted_size_gt_val(a, s, theta);
    }
  };

  struct Gt {
    using Result = int;
    const IntersectPolicy* p;
    std::span<const VertexId> a;
    VertexId* out;
    std::int64_t theta;

    int exact(std::int64_t n) const {
      return n > theta ? static_cast<int>(n) : kTooSmall;
    }
    int words(const SparseWordSet& w, const HybridRow& row) const {
      if (!p->early_exits) {
        return exact(static_cast<std::int64_t>(intersect_words(w, row, out)));
      }
      return intersect_gt(w, row, out, theta);
    }
    template <MembershipSet SetB>
    int probe(const SetB& set) const {
      return p->gt(a, set, out, theta);
    }
    int array_merge(const HybridRow& row) const {
      if (!p->early_exits) {
        int n = 0;
        for (VertexId v : a) {
          if (row.contains(v)) out[n++] = v;
        }
        return exact(n);
      }
      return hybrid_array_gt(a, row, out, theta);
    }
    int hash_batched(const HopscotchSet& set) const {
      if (!p->early_exits) {
        return exact(
            static_cast<std::int64_t>(intersect_hash_prefetch(a, set, out)));
      }
      return intersect_gt_prefetch(a, set, out, theta);
    }
    int sorted_merge(std::span<const VertexId> s) const {
      if (!p->early_exits) {
        return exact(static_cast<std::int64_t>(intersect_sorted(a, s, out)));
      }
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
