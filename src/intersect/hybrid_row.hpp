// Roaring-style hybrid neighborhood rows: per-row container dispatch for
// the word-parallel kernels.
//
// A packed bitset row costs zone/8 bytes no matter how sparse the
// neighborhood is, so `--bitset-budget-mb` is a hard ceiling on how much
// of the zone goes word-speed.  Hybrid rows store each row as whichever
// of three containers its density earns (the Roaring-bitmap recipe —
// Chambi, Lemire et al., "Better bitmap performance with Roaring
// bitmaps"), all in zone coordinates like BitsetRow:
//
//   kArray   — sorted u32 zone offsets; 4 bytes/neighbor.  Wins when the
//              in-zone degree is small (<= --hybrid-array-max).
//   kBitset  — the existing 64-byte-aligned packed words; zone/8 bytes.
//              Wins on dense rows.
//   kRun     — (start, length) u32 span pairs; 8 bytes/run.  Wins when
//              neighbors cluster (relabelled ids group by coreness level,
//              so rows of near-clique zones are genuinely runny).
//
// Every kernel here reproduces the word-granularity arithmetic of
// wp_kernels.hpp exactly: A's side is the same SparseWordSet, the scan
// visits A's occupied words in the same ascending order, and the
// miss-budget / success exits test the same  hits + (|A| - prefix) <= θ
// and  hits > θ  conditions after each word.  The only thing a container
// changes is *how* B's characteristic word is produced — direct index
// (bitset), a monotone element cursor (array), or span masks ANDed into
// the word (run) — so results are bit-identical to the scalar reference
// across containers and SIMD tiers (the bitset kind dispatches into the
// tiered wp tables unchanged).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "intersect/bitset_row.hpp"
#include "intersect/intersect.hpp"
#include "intersect/wp_kernels.hpp"

namespace lazymc {

/// Per-row container class of a hybrid row.
enum class RowContainer : std::uint8_t { kArray = 0, kBitset = 1, kRun = 2 };

inline const char* row_container_name(RowContainer k) {
  switch (k) {
    case RowContainer::kArray:
      return "array";
    case RowContainer::kBitset:
      return "bitset";
    case RowContainer::kRun:
      return "run";
  }
  return "?";
}

/// Payload shared by every empty hybrid row: a valid (non-null) pointer
/// with zero units, so empty rows cost no arena bytes at all.
inline constexpr std::uint64_t kEmptyHybridPayload[1] = {0};

/// Non-owning view of one vertex's hybrid neighborhood row over the zone
/// of interest.  `data == nullptr` means "no row" (budget exhausted or
/// representation absent); satisfies the MembershipSet concept.
///
/// Payload layout by kind (always carved 64-byte aligned):
///   kArray  — units sorted u32 zone offsets;
///   kBitset — units 64-bit words (== ceil(zone_bits/64));
///   kRun    — units (start, length) u32 pairs, starts strictly
///             ascending, spans disjoint and non-adjacent.
struct HybridRow {
  const std::uint64_t* data = nullptr;
  VertexId zone_begin = 0;
  VertexId zone_bits = 0;      // zone size in bits
  std::uint32_t popcount = 0;  // set bits = filtered in-zone degree
  std::uint32_t units = 0;     // container length (see layout above)
  RowContainer kind = RowContainer::kBitset;

  bool valid() const { return data != nullptr; }
  std::size_t size() const { return popcount; }

  const std::uint32_t* u32() const {
    return reinterpret_cast<const std::uint32_t*>(data);
  }
  /// The bitset kind viewed as a plain BitsetRow (for the tiered wp
  /// kernels); only meaningful when kind == kBitset.
  BitsetRow as_bitset() const {
    return BitsetRow{data, zone_begin, zone_bits, popcount};
  }

  /// Membership of relabelled vertex v (out-of-zone ids report false,
  /// same contract as BitsetRow).
  bool contains(VertexId v) const {
    if (v < zone_begin) return false;
    const VertexId i = v - zone_begin;
    if (i >= zone_bits) return false;
    switch (kind) {
      case RowContainer::kBitset:
        return (data[i >> 6] >> (i & 63)) & 1ULL;
      case RowContainer::kArray: {
        const std::uint32_t* e = u32();
        return std::binary_search(e, e + units, static_cast<std::uint32_t>(i));
      }
      case RowContainer::kRun: {
        const std::uint32_t* r = u32();
        // Last run with start <= i.
        std::uint32_t lo = 0, hi = units;
        while (lo < hi) {
          const std::uint32_t mid = (lo + hi) / 2;
          if (r[2 * mid] <= i) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        if (lo == 0) return false;
        const std::uint32_t start = r[2 * (lo - 1)];
        const std::uint32_t len = r[2 * (lo - 1) + 1];
        return i - start < len;
      }
    }
    return false;
  }
};

namespace hybrid_detail {

/// Bit mask for positions [lo, hi) of one 64-bit word (0 <= lo < hi <= 64).
inline std::uint64_t span_mask(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t upper = hi >= 64 ? ~0ULL : (1ULL << hi) - 1;
  return upper & ~((1ULL << lo) - 1);
}

/// Produces the array container's characteristic 64-bit word for ascending
/// zone-word indices: a monotone element cursor, O(popcount) over a scan.
class ArrayWordCursor {
 public:
  ArrayWordCursor(const std::uint32_t* e, std::uint32_t n) : e_(e), n_(n) {}

  /// Word `w` of the container; calls must use ascending w.
  std::uint64_t word(std::uint32_t w) {
    while (p_ < n_ && (e_[p_] >> 6) < w) ++p_;
    std::uint64_t bits = 0;
    while (p_ < n_ && (e_[p_] >> 6) == w) {
      bits |= 1ULL << (e_[p_] & 63);
      ++p_;
    }
    return bits;
  }

 private:
  const std::uint32_t* e_;
  std::uint32_t n_;
  std::uint32_t p_ = 0;
};

/// Produces the run container's characteristic word for ascending word
/// indices: each overlapping span contributes one mask AND-ed into the
/// word (the span-AND path — no per-element work at all).
class RunWordCursor {
 public:
  RunWordCursor(const std::uint32_t* runs, std::uint32_t n)
      : r_(runs), n_(n) {}

  std::uint64_t word(std::uint32_t w) {
    const std::uint64_t lo = static_cast<std::uint64_t>(w) << 6;
    const std::uint64_t hi = lo + 64;
    while (p_ < n_ && end(p_) <= lo) ++p_;
    std::uint64_t bits = 0;
    for (std::uint32_t q = p_; q < n_ && start(q) < hi; ++q) {
      bits |= span_mask(std::max<std::uint64_t>(start(q), lo) - lo,
                        std::min<std::uint64_t>(end(q), hi) - lo);
    }
    return bits;
  }

 private:
  std::uint64_t start(std::uint32_t q) const { return r_[2 * q]; }
  std::uint64_t end(std::uint32_t q) const {
    return static_cast<std::uint64_t>(r_[2 * q]) + r_[2 * q + 1];
  }

  const std::uint32_t* r_;
  std::uint32_t n_;
  std::uint32_t p_ = 0;
};

/// Kind-erased ascending word cursor over any hybrid container.
class HybridWordCursor {
 public:
  explicit HybridWordCursor(const HybridRow& row)
      : row_(&row),
        array_(row.kind == RowContainer::kArray ? row.u32() : nullptr,
               row.kind == RowContainer::kArray ? row.units : 0),
        run_(row.kind == RowContainer::kRun ? row.u32() : nullptr,
             row.kind == RowContainer::kRun ? row.units : 0) {}

  std::uint64_t word(std::uint32_t w) {
    switch (row_->kind) {
      case RowContainer::kBitset:
        return row_->data[w];
      case RowContainer::kArray:
        return array_.word(w);
      case RowContainer::kRun:
        return run_.word(w);
    }
    return 0;
  }

 private:
  const HybridRow* row_;
  ArrayWordCursor array_;
  RunWordCursor run_;
};

/// Visits the occupied words of a hybrid row ascending as (index, bits);
/// stops early when fn returns false.  LazyGraph's row build uses it to
/// check a freshly encoded row's popcount in checked builds.
template <typename Fn>
void for_each_word(const HybridRow& r, Fn&& fn) {
  switch (r.kind) {
    case RowContainer::kBitset: {
      const std::uint32_t nw =
          static_cast<std::uint32_t>((r.zone_bits + 63) / 64);
      for (std::uint32_t w = 0; w < nw; ++w) {
        if (r.data[w] && !fn(w, r.data[w])) return;
      }
      return;
    }
    case RowContainer::kArray: {
      const std::uint32_t* e = r.u32();
      std::uint32_t p = 0;
      while (p < r.units) {
        const std::uint32_t w = e[p] >> 6;
        std::uint64_t bits = 0;
        while (p < r.units && (e[p] >> 6) == w) {
          bits |= 1ULL << (e[p] & 63);
          ++p;
        }
        if (!fn(w, bits)) return;
      }
      return;
    }
    case RowContainer::kRun: {
      const std::uint32_t* runs = r.u32();
      std::uint64_t pend_bits = 0;
      std::uint32_t pend_w = 0;
      bool open = false;
      for (std::uint32_t q = 0; q < r.units; ++q) {
        std::uint64_t pos = runs[2 * q];
        const std::uint64_t end = pos + runs[2 * q + 1];
        while (pos < end) {
          const std::uint32_t w = static_cast<std::uint32_t>(pos >> 6);
          const std::uint64_t stop =
              std::min<std::uint64_t>(end, (static_cast<std::uint64_t>(w) + 1)
                                               << 6);
          const std::uint64_t mask =
              span_mask(pos - (static_cast<std::uint64_t>(w) << 6),
                        stop - (static_cast<std::uint64_t>(w) << 6));
          if (open && w == pend_w) {
            pend_bits |= mask;
          } else {
            if (open && !fn(pend_w, pend_bits)) return;
            pend_w = w;
            pend_bits = mask;
            open = true;
          }
          pos = stop;
        }
      }
      if (open) fn(pend_w, pend_bits);
      return;
    }
  }
}

}  // namespace hybrid_detail

// --------------------------------------------------------------------------
// SparseWordSet A x HybridRow B.  Same contracts as the BitsetRow kernels
// in intersect.hpp; the bitset kind routes through the tiered wp tables
// (so SIMD acceleration is untouched), array/run kinds run the cursor
// kernels below with identical per-word exit arithmetic.

namespace hybrid_detail {

template <typename Cursor>
int cursor_size_gt_val(const SparseWordSet& a, Cursor cur, std::int64_t m,
                       std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.count());
  if (n <= theta || m <= theta) return kTooSmall;
  std::int64_t hits = 0;
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  const std::uint32_t* prefix = a.prefix().data();
  const std::size_t ne = a.num_entries();
  for (std::size_t k = 0; k < ne; ++k) {
    hits += std::popcount(bits[k] & cur.word(idx[k]));
    if (hits + (n - prefix[k + 1]) <= theta) return kTooSmall;
  }
  return static_cast<int>(hits);
}

template <typename Cursor>
bool cursor_size_gt_bool(const SparseWordSet& a, Cursor cur, std::int64_t m,
                         std::int64_t theta, bool enable_second_exit) {
  const std::int64_t n = static_cast<std::int64_t>(a.count());
  if (n <= theta || m <= theta) return false;
  std::int64_t hits = 0;
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  const std::uint32_t* prefix = a.prefix().data();
  const std::size_t ne = a.num_entries();
  for (std::size_t k = 0; k < ne; ++k) {
    hits += std::popcount(bits[k] & cur.word(idx[k]));
    if (hits + (n - prefix[k + 1]) <= theta) return false;
    if (enable_second_exit && hits > theta) return true;
  }
  return hits > theta;
}

template <typename Cursor>
int cursor_gt(const SparseWordSet& a, Cursor cur, VertexId zone_begin,
              std::int64_t m, VertexId* out, std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.count());
  if (n <= theta || m <= theta) return kTooSmall;
  std::int64_t hits = 0;
  std::size_t written = 0;
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  const std::uint32_t* prefix = a.prefix().data();
  const std::size_t ne = a.num_entries();
  for (std::size_t k = 0; k < ne; ++k) {
    const std::uint64_t both = bits[k] & cur.word(idx[k]);
    hits += std::popcount(both);
    written += wp::detail::extract_word(both, idx[k], zone_begin,
                                        out + written);
    if (hits + (n - prefix[k + 1]) <= theta) return kTooSmall;
  }
  return static_cast<int>(written);
}

}  // namespace hybrid_detail

inline int intersect_size_gt_val(const SparseWordSet& a, const HybridRow& b,
                                 std::int64_t theta) {
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  switch (b.kind) {
    case RowContainer::kBitset:
      return wp::active_table().size_gt_val(a, b.as_bitset(), theta);
    case RowContainer::kArray:
      return hybrid_detail::cursor_size_gt_val(
          a, hybrid_detail::ArrayWordCursor(b.u32(), b.units), m, theta);
    case RowContainer::kRun:
      return hybrid_detail::cursor_size_gt_val(
          a, hybrid_detail::RunWordCursor(b.u32(), b.units), m, theta);
  }
  return kTooSmall;
}

inline bool intersect_size_gt_bool(const SparseWordSet& a, const HybridRow& b,
                                   std::int64_t theta,
                                   bool enable_second_exit = true) {
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  switch (b.kind) {
    case RowContainer::kBitset:
      return wp::active_table().size_gt_bool(a, b.as_bitset(), theta,
                                             enable_second_exit);
    case RowContainer::kArray:
      return hybrid_detail::cursor_size_gt_bool(
          a, hybrid_detail::ArrayWordCursor(b.u32(), b.units), m, theta,
          enable_second_exit);
    case RowContainer::kRun:
      return hybrid_detail::cursor_size_gt_bool(
          a, hybrid_detail::RunWordCursor(b.u32(), b.units), m, theta,
          enable_second_exit);
  }
  return false;
}

inline int intersect_gt(const SparseWordSet& a, const HybridRow& b,
                        VertexId* out, std::int64_t theta) {
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  switch (b.kind) {
    case RowContainer::kBitset:
      return wp::active_table().gt(a, b.as_bitset(), out, theta);
    case RowContainer::kArray:
      return hybrid_detail::cursor_gt(
          a, hybrid_detail::ArrayWordCursor(b.u32(), b.units), b.zone_begin, m,
          out, theta);
    case RowContainer::kRun:
      return hybrid_detail::cursor_gt(
          a, hybrid_detail::RunWordCursor(b.u32(), b.units), b.zone_begin, m,
          out, theta);
  }
  return kTooSmall;
}

// --------------------------------------------------------------------------
// Sorted array A x array-container B: the array x array paths used when
// the word form of A is unavailable (degraded rounds).  B's elements are
// zone offsets, so the comparisons shift A by zone_begin once.

/// MembershipSet adapter over the array container (binary-search probes);
/// pairs with the generic early-exit templates for the gallop path.
class HybridArrayLookup {
 public:
  explicit HybridArrayLookup(const HybridRow& row)
      : e_(row.u32()), n_(row.units), zone_begin_(row.zone_begin),
        zone_bits_(row.zone_bits) {}
  bool contains(VertexId v) const {
    if (v < zone_begin_) return false;
    const VertexId i = v - zone_begin_;
    if (i >= zone_bits_) return false;
    return std::binary_search(e_, e_ + n_, static_cast<std::uint32_t>(i));
  }
  std::size_t size() const { return n_; }

 private:
  const std::uint32_t* e_;
  std::uint32_t n_;
  VertexId zone_begin_;
  VertexId zone_bits_;
};

/// Merge-based intersect-size-gt-bool of sorted A against the array
/// container (both sides ascending; dual miss budgets like
/// intersect_sorted_size_gt_bool).
inline bool hybrid_array_size_gt_bool(std::span<const VertexId> a,
                                      const HybridRow& b, std::int64_t theta,
                                      bool enable_second_exit = true) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.units);
  if (n <= theta || m <= theta) return false;
  const std::uint32_t* e = b.u32();
  std::int64_t ha = n - theta;
  std::int64_t hb = m - theta;
  std::int64_t hits = 0;
  std::size_t i = 0, j = 0;
  const std::size_t an = a.size();
  while (i < an && j < b.units) {
    // A ids below the zone can never match a zone-offset container.
    const std::uint64_t ai =
        a[i] < b.zone_begin
            ? 0
            : static_cast<std::uint64_t>(a[i] - b.zone_begin) + 1;
    const std::uint64_t bj = static_cast<std::uint64_t>(e[j]) + 1;
    if (ai == bj) {
      ++hits;
      ++i;
      ++j;
      if (enable_second_exit && hits > theta) return true;
    } else if (ai < bj) {
      ++i;
      if (--ha <= 0) return false;
    } else {
      ++j;
      if (--hb <= 0) return false;
    }
  }
  return hits > theta;
}

/// Merge-based intersect-size-gt-val against the array container.
inline int hybrid_array_size_gt_val(std::span<const VertexId> a,
                                    const HybridRow& b, std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.units);
  if (n <= theta || m <= theta) return kTooSmall;
  const std::uint32_t* e = b.u32();
  std::int64_t ha = n - theta;
  std::int64_t hb = m - theta;
  std::int64_t hits = 0;
  std::size_t i = 0, j = 0;
  const std::size_t an = a.size();
  while (i < an && j < b.units) {
    const std::uint64_t ai =
        a[i] < b.zone_begin
            ? 0
            : static_cast<std::uint64_t>(a[i] - b.zone_begin) + 1;
    const std::uint64_t bj = static_cast<std::uint64_t>(e[j]) + 1;
    if (ai == bj) {
      ++hits;
      ++i;
      ++j;
    } else if (ai < bj) {
      ++i;
      if (--ha <= 0) return kTooSmall;
    } else {
      ++j;
      if (--hb <= 0) return kTooSmall;
    }
  }
  return static_cast<int>(hits);
}

/// Merge-based intersect-gt against the array container; writes the
/// matches (as relabelled ids) to out.
inline int hybrid_array_gt(std::span<const VertexId> a, const HybridRow& b,
                           VertexId* out, std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.units);
  if (n <= theta || m <= theta) return kTooSmall;
  const std::uint32_t* e = b.u32();
  std::int64_t ha = n - theta;
  std::int64_t hb = m - theta;
  std::size_t written = 0;
  std::size_t i = 0, j = 0;
  const std::size_t an = a.size();
  while (i < an && j < b.units) {
    const std::uint64_t ai =
        a[i] < b.zone_begin
            ? 0
            : static_cast<std::uint64_t>(a[i] - b.zone_begin) + 1;
    const std::uint64_t bj = static_cast<std::uint64_t>(e[j]) + 1;
    if (ai == bj) {
      out[written++] = a[i];
      ++i;
      ++j;
    } else if (ai < bj) {
      ++i;
      if (--ha <= 0) return kTooSmall;
    } else {
      ++j;
      if (--hb <= 0) return kTooSmall;
    }
  }
  return static_cast<int>(written);
}

}  // namespace lazymc
