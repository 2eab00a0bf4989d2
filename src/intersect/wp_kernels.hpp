// Tiered word-parallel intersection kernels (SparseWordSet A x BitsetRow
// B), shared between the scalar build and the AVX2/AVX-512 translation
// units.
//
// Each kernel body is written once, templated over a block-ops policy V:
//
//   V::kWidth                        words processed per step (1 / 8);
//   V::count(idx, bits, row)         popcount of the block's A&B words,
//                                    row words fetched by gather;
//   V::count_contig(bits, rowp)      same, row words contiguous at rowp;
//   V::fill(...) / V::fill_contig()  same, materializing the AND words.
//
// Two precomputed facts strip work out of the inner loop:
//  * A's cumulative word popcounts (SparseWordSet::prefix) turn the
//    miss-budget update h -= popcount(a) - popcount(a&b) into the
//    equivalent test  hits + (|A| - prefix) <= θ  — no popcount of the A
//    side per block;
//  * when A's occupied words form one contiguous run (the dense-zone
//    case: nearly every zone word occupied), the row words are a
//    contiguous slice too, so the vector tiers use straight loads
//    instead of gathers.
//
// The early exits are checked once per block instead of once per word.
// That preserves the exact exit *semantics*: the budget and hit count
// are both monotone over the scan, and the failure condition (misses
// already rule out > θ hits) and success condition (hits > θ) can never
// both occur in one scan — so coarser checks change only how early the
// function returns, never what it returns.  Every tier is bit-identical
// to the scalar kernel, which the forced-tier property tests enforce.
#pragma once

#include <bit>
#include <cstdint>

#include "intersect/intersect.hpp"
#include "support/simd.hpp"

namespace lazymc::wp {

/// Dispatch table for one tier; see scalar_table()/avx2_table()/
/// avx512_table() below.
struct Table {
  simd::Tier tier;
  int (*gt)(const SparseWordSet&, const BitsetRow&, VertexId*, std::int64_t);
  int (*size_gt_val)(const SparseWordSet&, const BitsetRow&, std::int64_t);
  bool (*size_gt_bool)(const SparseWordSet&, const BitsetRow&, std::int64_t,
                       bool);
};

/// Width-1 policy: one word per "block", used by the scalar tier (and as
/// the reference the vector tiers must agree with).
struct ScalarOps {
  static constexpr std::size_t kWidth = 1;

  static std::int64_t count(const std::uint32_t* idx,
                            const std::uint64_t* bits,
                            const std::uint64_t* row) {
    return std::popcount(bits[0] & row[idx[0]]);
  }
  static std::int64_t count_contig(const std::uint64_t* bits,
                                   const std::uint64_t* rowp) {
    return std::popcount(bits[0] & rowp[0]);
  }
  static std::int64_t fill(const std::uint32_t* idx, const std::uint64_t* bits,
                           const std::uint64_t* row, std::uint64_t* out) {
    out[0] = bits[0] & row[idx[0]];
    return std::popcount(out[0]);
  }
  static std::int64_t fill_contig(const std::uint64_t* bits,
                                  const std::uint64_t* rowp,
                                  std::uint64_t* out) {
    out[0] = bits[0] & rowp[0];
    return std::popcount(out[0]);
  }
};

namespace detail {

/// Appends the set bits of `word` (zone word `index`) to `out` as
/// relabelled vertex ids.
inline std::size_t extract_word(std::uint64_t word, std::uint32_t index,
                                VertexId base, VertexId* out) {
  std::size_t written = 0;
  const VertexId word_base = base + (static_cast<VertexId>(index) << 6);
  while (word) {
    out[written++] =
        word_base + static_cast<unsigned>(std::countr_zero(word));
    word &= word - 1;
  }
  return written;
}

/// A's occupied words form one contiguous index run, so row words can be
/// read as the slice row + idx[0] instead of gathered.
inline bool contiguous(const std::uint32_t* idx, std::size_t ne) {
  return ne > 0 &&
         static_cast<std::size_t>(idx[ne - 1] - idx[0]) + 1 == ne;
}

}  // namespace detail

template <typename V>
int wp_gt(const SparseWordSet& a, const BitsetRow& b, VertexId* out,
          std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.count());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return kTooSmall;
  std::int64_t hits = 0;
  std::size_t written = 0;
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  const std::uint32_t* prefix = a.prefix().data();
  const std::uint64_t* row = b.words;
  const VertexId base = b.zone_begin;
  const std::size_t ne = a.num_entries();
  const bool contig = detail::contiguous(idx, ne);
  const std::uint64_t* rowp = contig ? row + idx[0] : nullptr;
  std::uint64_t and_buf[V::kWidth];
  std::size_t k = 0;
  for (; k + V::kWidth <= ne; k += V::kWidth) {
    hits += contig ? V::fill_contig(bits + k, rowp + k, and_buf)
                   : V::fill(idx + k, bits + k, row, and_buf);
    for (std::size_t j = 0; j < V::kWidth; ++j) {
      written += detail::extract_word(and_buf[j], idx[k + j], base,
                                      out + written);
    }
    if (hits + (n - prefix[k + V::kWidth]) <= theta) return kTooSmall;
  }
  for (; k < ne; ++k) {
    const std::uint64_t both = bits[k] & row[idx[k]];
    hits += std::popcount(both);
    written += detail::extract_word(both, idx[k], base, out + written);
    if (hits + (n - prefix[k + 1]) <= theta) return kTooSmall;
  }
  return static_cast<int>(written);
}

template <typename V>
int wp_size_gt_val(const SparseWordSet& a, const BitsetRow& b,
                   std::int64_t theta) {
  const std::int64_t n = static_cast<std::int64_t>(a.count());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return kTooSmall;
  std::int64_t hits = 0;
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  const std::uint32_t* prefix = a.prefix().data();
  const std::uint64_t* row = b.words;
  const std::size_t ne = a.num_entries();
  const bool contig = detail::contiguous(idx, ne);
  const std::uint64_t* rowp = contig ? row + idx[0] : nullptr;
  std::size_t k = 0;
  for (; k + V::kWidth <= ne; k += V::kWidth) {
    hits += contig ? V::count_contig(bits + k, rowp + k)
                   : V::count(idx + k, bits + k, row);
    if (hits + (n - prefix[k + V::kWidth]) <= theta) return kTooSmall;
  }
  for (; k < ne; ++k) {
    hits += std::popcount(bits[k] & row[idx[k]]);
    if (hits + (n - prefix[k + 1]) <= theta) return kTooSmall;
  }
  return static_cast<int>(hits);
}

template <typename V>
bool wp_size_gt_bool(const SparseWordSet& a, const BitsetRow& b,
                     std::int64_t theta, bool enable_second_exit) {
  const std::int64_t n = static_cast<std::int64_t>(a.count());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  if (n <= theta || m <= theta) return false;
  std::int64_t hits = 0;
  const std::uint32_t* idx = a.indices().data();
  const std::uint64_t* bits = a.bits().data();
  const std::uint32_t* prefix = a.prefix().data();
  const std::uint64_t* row = b.words;
  const std::size_t ne = a.num_entries();
  const bool contig = detail::contiguous(idx, ne);
  const std::uint64_t* rowp = contig ? row + idx[0] : nullptr;
  std::size_t k = 0;
  for (; k + V::kWidth <= ne; k += V::kWidth) {
    hits += contig ? V::count_contig(bits + k, rowp + k)
                   : V::count(idx + k, bits + k, row);
    if (hits + (n - prefix[k + V::kWidth]) <= theta) return false;  // exit 1
    if (enable_second_exit && hits > theta) return true;            // exit 2
  }
  for (; k < ne; ++k) {
    hits += std::popcount(bits[k] & row[idx[k]]);
    if (hits + (n - prefix[k + 1]) <= theta) return false;
    if (enable_second_exit && hits > theta) return true;
  }
  return hits > theta;
}

template <typename V>
constexpr Table make_table(simd::Tier tier) {
  return Table{tier, &wp_gt<V>, &wp_size_gt_val<V>, &wp_size_gt_bool<V>};
}

const Table& scalar_table();
/// Null when the respective ISA was not compiled in.
const Table* avx2_table();
const Table* avx512_table();
/// The table for simd::current_tier().
const Table& active_table();

}  // namespace lazymc::wp
