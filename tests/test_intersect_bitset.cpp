// Property tests for the word-parallel intersection engine: BitsetRow /
// SparseWordSet kernels, prefetched batch hash probes, and the adaptive
// IntersectPolicy dispatch — every (representation x kernel x θ)
// combination is checked against intersect_reference, including θ = -1,
// θ >= min(|A|,|B|), empty sides, and word-boundary sizes (63/64/65).
//
// The forced-tier suites re-run the word-parallel kernels under every
// SIMD tier the build + CPU support (scalar is always one of them),
// asserting bit-identical results at the vector-width boundaries
// (255/256/257 and 511/512/513 bits) and at budget-exit positions that
// fall *inside* an AVX2/AVX-512 block.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "hashset/hopscotch_set.hpp"
#include "intersect/intersect.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/intersect_policy.hpp"
#include "support/random.hpp"
#include "support/simd.hpp"

namespace lazymc {
namespace {

/// RAII tier forcing; restores auto dispatch on scope exit.
struct ForcedTier {
  explicit ForcedTier(simd::Tier t) { ok = simd::force_tier(t); }
  ~ForcedTier() { simd::reset_tier(); }
  bool ok = false;
};

using simd::supported_tiers;

/// Owning helper: packs `elements` (ids >= zone_begin) into row words.
struct OwnedRow {
  std::vector<std::uint64_t> words;
  BitsetRow row;

  OwnedRow(const std::vector<VertexId>& elements, VertexId zone_begin,
           VertexId zone_bits) {
    words.assign((static_cast<std::size_t>(zone_bits) + 63) / 64, 0);
    std::uint32_t count = 0;
    for (VertexId v : elements) {
      const VertexId off = v - zone_begin;
      words[off >> 6] |= 1ULL << (off & 63);
      ++count;
    }
    row = BitsetRow{words.data(), zone_begin, zone_bits, count};
  }

  /// The same row as the kBitset zone-row container LazyGraph hands out.
  HybridRow zone_row() const {
    return HybridRow{row.words,
                     row.zone_begin,
                     row.zone_bits,
                     row.popcount,
                     static_cast<std::uint32_t>(words.size()),
                     RowContainer::kBitset};
  }
};

/// Owning helper: the same set as kArray and kRun hybrid-row containers.
struct OwnedContainers {
  std::vector<std::uint64_t> array_words;  // sorted u32 zone offsets
  std::vector<std::uint64_t> run_words;    // (start, length) u32 pairs
  HybridRow array_row;
  HybridRow run_row;

  OwnedContainers(const std::vector<VertexId>& elements, VertexId zone_begin,
                  VertexId zone_bits) {
    std::vector<std::uint32_t> offs, runs;
    for (VertexId v : elements) {
      const std::uint32_t off = v - zone_begin;
      if (offs.empty() || off != offs.back() + 1) {
        runs.push_back(off);
        runs.push_back(1);
      } else {
        ++runs.back();
      }
      offs.push_back(off);
    }
    // Payloads are carved in 64-bit words, like LazyGraph's arena.  An
    // empty vector's data() may be null, which memcpy must not see.
    array_words.assign(offs.size() / 2 + 1, 0);
    run_words.assign(runs.size() / 2 + 1, 0);
    if (!offs.empty()) {
      std::memcpy(array_words.data(), offs.data(), offs.size() * 4);
    }
    if (!runs.empty()) {
      std::memcpy(run_words.data(), runs.data(), runs.size() * 4);
    }
    const auto count = static_cast<std::uint32_t>(offs.size());
    array_row = HybridRow{array_words.data(), zone_begin, zone_bits,
                          count, count, RowContainer::kArray};
    run_row = HybridRow{run_words.data(), zone_begin, zone_bits, count,
                        static_cast<std::uint32_t>(runs.size() / 2),
                        RowContainer::kRun};
  }
};

std::vector<VertexId> random_zone_set(Rng& rng, std::size_t max_size,
                                      VertexId zone_begin,
                                      VertexId zone_bits) {
  std::vector<VertexId> v;
  const std::size_t size = rng.next_below(max_size + 1);
  for (std::size_t i = 0; i < size; ++i) {
    v.push_back(zone_begin + static_cast<VertexId>(rng.next_below(zone_bits)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

HopscotchSet make_set(const std::vector<VertexId>& v) {
  HopscotchSet s(v.size());
  for (VertexId x : v) s.insert(x);
  return s;
}

TEST(SparseWordSet, BuildPacksSortedIdsByWord) {
  SparseWordSet a;
  std::vector<VertexId> ids = {100, 101, 163, 164, 300};
  a.build({ids.data(), ids.size()}, 100);
  ASSERT_EQ(a.count(), 5u);
  ASSERT_EQ(a.num_entries(), 3u);  // words 0 (offs 0,1,63), 1 (64), 3 (200)
  EXPECT_EQ(a.indices()[0], 0u);
  EXPECT_EQ(a.bits()[0], (1ULL << 0) | (1ULL << 1) | (1ULL << 63));
  EXPECT_EQ(a.indices()[1], 1u);
  EXPECT_EQ(a.bits()[1], 1ULL << 0);
  EXPECT_EQ(a.indices()[2], 3u);
  EXPECT_EQ(a.bits()[2], 1ULL << 8);
}

TEST(BitsetRow, ContainsClipsToZone) {
  OwnedRow owned({10, 73, 74}, 10, 65);
  const BitsetRow& row = owned.row;
  EXPECT_TRUE(row.contains(10));
  EXPECT_TRUE(row.contains(73));
  EXPECT_TRUE(row.contains(74));
  EXPECT_FALSE(row.contains(11));
  EXPECT_FALSE(row.contains(9));    // below the zone
  EXPECT_FALSE(row.contains(75));   // past the zone
  EXPECT_FALSE(row.contains(200));  // far past the zone
  EXPECT_EQ(row.size(), 3u);
  EXPECT_FALSE(BitsetRow{}.valid());
  EXPECT_TRUE(row.valid());
}

// All word-parallel kernels against intersect_reference, across zone
// offsets, word-boundary zone sizes, and the full θ sweep.
TEST(BitsetKernels, MatchReferenceExhaustively) {
  Rng rng(111);
  for (VertexId zone_begin : {VertexId{0}, VertexId{7}, VertexId{64}}) {
    for (VertexId zone_bits : {VertexId{63}, VertexId{64}, VertexId{65},
                               VertexId{200}}) {
      for (int round = 0; round < 60; ++round) {
        auto a = random_zone_set(rng, 40, zone_begin, zone_bits);
        auto b = random_zone_set(rng, 40, zone_begin, zone_bits);
        SparseWordSet aw;
        aw.build({a.data(), a.size()}, zone_begin);
        OwnedRow owned(b, zone_begin, zone_bits);
        const BitsetRow& row = owned.row;
        const auto expected = intersect_reference(a, b);
        const std::int64_t truth = static_cast<std::int64_t>(expected.size());

        // θ = -1 is the exact intersection.
        const std::int64_t max_theta = static_cast<std::int64_t>(
            std::min(a.size(), b.size()) + 2);
        for (std::int64_t theta = -1; theta <= max_theta; ++theta) {
          const bool above = truth > theta;
          EXPECT_EQ(intersect_size_gt_bool(aw, row, theta, true), above)
              << "zb=" << zone_begin << " bits=" << zone_bits
              << " theta=" << theta;
          EXPECT_EQ(intersect_size_gt_bool(aw, row, theta, false), above);
          int v = intersect_size_gt_val(aw, row, theta);
          EXPECT_EQ(v, above ? static_cast<int>(truth) : kTooSmall);

          std::vector<VertexId> out(a.size() + 1);
          int g = intersect_gt(aw, row, out.data(), theta);
          if (above) {
            ASSERT_EQ(g, static_cast<int>(truth));
            out.resize(expected.size());
            EXPECT_EQ(out, expected);  // ascending, like the scalar kernel
          } else {
            EXPECT_EQ(g, kTooSmall);
          }
        }
      }
    }
  }
}

TEST(BitsetKernels, EmptySides) {
  SparseWordSet empty_a;
  empty_a.build({}, 0);
  OwnedRow b({1, 2, 3}, 0, 64);
  EXPECT_FALSE(intersect_size_gt_bool(empty_a, b.row, 0));
  EXPECT_TRUE(intersect_size_gt_bool(empty_a, b.row, -1));  // 0 > -1
  EXPECT_EQ(intersect_size_gt_val(empty_a, b.row, 0), kTooSmall);

  std::vector<VertexId> a = {1, 2, 3};
  SparseWordSet aw;
  aw.build({a.data(), a.size()}, 0);
  OwnedRow empty_b({}, 0, 64);
  EXPECT_FALSE(intersect_size_gt_bool(aw, empty_b.row, 0));
  EXPECT_EQ(intersect_size_gt_val(aw, empty_b.row, 0), kTooSmall);
  std::vector<VertexId> out(4);
  EXPECT_EQ(intersect_gt(aw, empty_b.row, out.data(), 0), kTooSmall);
  EXPECT_EQ(intersect_gt(aw, empty_b.row, out.data(), -1), 0);
}

// Every supported SIMD tier must return bit-identical results to the
// reference at the vector-width boundaries: 255/256/257 bits straddle an
// AVX2 block (4 x 64) and 511/512/513 an AVX-512 one (8 x 64), so block
// loops, masked/scalar tails, and the per-block budget checks all get
// exercised on either side of a full vector.
TEST(BitsetKernelTiers, AllTiersMatchReferenceAtVectorBoundaries) {
  for (simd::Tier tier : supported_tiers()) {
    ForcedTier forced(tier);
    ASSERT_TRUE(forced.ok) << simd::tier_name(tier);
    Rng rng(1000 + static_cast<std::uint64_t>(tier));
    for (VertexId zone_begin : {VertexId{0}, VertexId{7}}) {
      for (VertexId zone_bits :
           {VertexId{255}, VertexId{256}, VertexId{257}, VertexId{511},
            VertexId{512}, VertexId{513}}) {
        for (int round = 0; round < 25; ++round) {
          auto a = random_zone_set(rng, 160, zone_begin, zone_bits);
          auto b = random_zone_set(rng, 160, zone_begin, zone_bits);
          SparseWordSet aw;
          aw.build({a.data(), a.size()}, zone_begin);
          OwnedRow owned(b, zone_begin, zone_bits);
          const BitsetRow& row = owned.row;
          const auto expected = intersect_reference(a, b);
          const std::int64_t truth =
              static_cast<std::int64_t>(expected.size());
          std::vector<VertexId> out(a.size() + 1);

          // θ = -1 is the exact intersection.
          const std::int64_t max_theta =
              static_cast<std::int64_t>(std::min(a.size(), b.size()) + 2);
          for (std::int64_t theta = -1; theta <= max_theta; ++theta) {
            const bool above = truth > theta;
            EXPECT_EQ(intersect_size_gt_bool(aw, row, theta, true), above)
                << simd::tier_name(tier) << " bits=" << zone_bits
                << " theta=" << theta;
            EXPECT_EQ(intersect_size_gt_bool(aw, row, theta, false), above);
            EXPECT_EQ(intersect_size_gt_val(aw, row, theta),
                      above ? static_cast<int>(truth) : kTooSmall);
            int g = intersect_gt(aw, row, out.data(), theta);
            if (above) {
              ASSERT_EQ(g, static_cast<int>(truth));
              EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                                     out.begin()));
            } else {
              EXPECT_EQ(g, kTooSmall);
            }
          }
        }
      }
    }
  }
}

// Budget exits that trip *inside* a vector block: A occupies 16 full
// words (1024 elements), B keeps only words [0, keep) of A, so the miss
// budget h = |A| - θ runs dry at a controlled word position — including
// positions in the middle of an AVX2 (4-word) or AVX-512 (8-word) block.
// Tiers check the budget once per block, which by the monotonicity
// argument in wp_kernels.hpp must never change the verdict; this test
// pins that on every supported tier, θ regime, and exit word.
TEST(BitsetKernelTiers, BudgetExitInsideVectorBlock) {
  constexpr VertexId kZoneBits = 1024;  // 16 words, all occupied by A
  std::vector<VertexId> a(kZoneBits);
  for (VertexId v = 0; v < kZoneBits; ++v) a[v] = v;
  SparseWordSet aw;
  aw.build({a.data(), a.size()}, 0);
  ASSERT_EQ(aw.num_entries(), 16u);

  for (simd::Tier tier : supported_tiers()) {
    ForcedTier forced(tier);
    ASSERT_TRUE(forced.ok);
    for (std::size_t keep = 0; keep <= 16; ++keep) {
      std::vector<VertexId> b;
      for (VertexId v = 0; v < static_cast<VertexId>(keep * 64); ++v) {
        b.push_back(v);
      }
      OwnedRow owned(b, 0, kZoneBits);
      const std::int64_t truth = static_cast<std::int64_t>(b.size());
      // Thetas chosen so the failure exit fires after ~1, ~keep/2, ~keep
      // and ~16 words — i.e. at every alignment within a block.
      for (std::int64_t theta :
           {std::int64_t{-1}, std::int64_t{0}, truth - 65, truth - 1, truth,
            truth + 1, truth + 63, std::int64_t{1023}}) {
        const bool above = truth > theta;
        EXPECT_EQ(intersect_size_gt_bool(aw, owned.row, theta, true), above)
            << simd::tier_name(tier) << " keep=" << keep
            << " theta=" << theta;
        EXPECT_EQ(intersect_size_gt_bool(aw, owned.row, theta, false), above);
        EXPECT_EQ(intersect_size_gt_val(aw, owned.row, theta),
                  above ? static_cast<int>(truth) : kTooSmall);
        std::vector<VertexId> out(a.size() + 1);
        int g = intersect_gt(aw, owned.row, out.data(), theta);
        if (above) {
          ASSERT_EQ(g, static_cast<int>(truth));
          EXPECT_TRUE(std::equal(b.begin(), b.end(), out.begin()));
        } else {
          EXPECT_EQ(g, kTooSmall);
        }
      }
    }
  }
}

// Prefetched batch probes must be bit-identical to the scalar hash
// kernels for every θ, including sizes around the lookahead and word
// boundaries (63/64/65) and empty inputs.
TEST(PrefetchKernels, MatchScalarHashKernels) {
  Rng rng(222);
  for (std::size_t na : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                         std::size_t{63}, std::size_t{64}, std::size_t{65},
                         std::size_t{200}}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<VertexId> a, b;
      for (std::size_t i = 0; i < na; ++i) {
        a.push_back(static_cast<VertexId>(rng.next_below(300)));
      }
      std::size_t nb = rng.next_below(120);
      for (std::size_t i = 0; i < nb; ++i) {
        b.push_back(static_cast<VertexId>(rng.next_below(300)));
      }
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
      HopscotchSet bs = make_set(b);
      std::span<const VertexId> as(a);

      // θ = -1 is the exact intersection.
      const std::int64_t max_theta =
          static_cast<std::int64_t>(std::min(a.size(), bs.size()) + 2);
      for (std::int64_t theta = -1; theta <= max_theta; ++theta) {
        EXPECT_EQ(intersect_size_gt_bool_prefetch(as, bs, theta, true),
                  intersect_size_gt_bool(as, bs, theta, true));
        EXPECT_EQ(intersect_size_gt_bool_prefetch(as, bs, theta, false),
                  intersect_size_gt_bool(as, bs, theta, false));
        EXPECT_EQ(intersect_size_gt_val_prefetch(as, bs, theta),
                  intersect_size_gt_val(as, bs, theta));
        std::vector<VertexId> out1(a.size() + 1), out2(a.size() + 1);
        int r1 = intersect_gt_prefetch(as, bs, out1.data(), theta);
        int r2 = intersect_gt(as, bs, out2.data(), theta);
        EXPECT_EQ(r1, r2);
        if (r1 != kTooSmall) {
          out1.resize(static_cast<std::size_t>(r1));
          out2.resize(static_cast<std::size_t>(r2));
          EXPECT_EQ(out1, out2);
        }
      }
    }
  }
}

TEST(SortedKernels, SizeGtValMatchesReference) {
  Rng rng(333);
  for (int round = 0; round < 200; ++round) {
    std::vector<VertexId> a, b;
    std::size_t na = rng.next_below(40);
    std::size_t nb = rng.next_below(40);
    for (std::size_t i = 0; i < na; ++i) {
      a.push_back(static_cast<VertexId>(rng.next_below(70)));
    }
    for (std::size_t i = 0; i < nb; ++i) {
      b.push_back(static_cast<VertexId>(rng.next_below(70)));
    }
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    const std::int64_t truth =
        static_cast<std::int64_t>(intersect_reference(a, b).size());
    // θ = -1 is the exact intersection.
    for (std::int64_t theta = -1; theta <= 12; ++theta) {
      int r = intersect_sorted_size_gt_val(a, b, theta);
      EXPECT_EQ(r, truth > theta ? static_cast<int>(truth) : kTooSmall)
          << "theta=" << theta;
    }
  }
}

/// Every dispatch counter by name, for comparing two policies' routes.
std::map<std::string, std::uint64_t> counter_values(
    const mc::KernelCounters& c) {
  std::map<std::string, std::uint64_t> v = {
      {"merge", c.merge.load()},
      {"gallop", c.gallop.load()},
      {"hash", c.hash.load()},
      {"hash_batched", c.hash_batched.load()},
      {"bitset_probe", c.bitset_probe.load()},
      {"bitset_word", c.bitset_word.load()},
      {"array_gallop", c.array_gallop.load()},
      {"run_and", c.run_and.load()}};
  for (std::size_t t = 0; t < simd::kNumTiers; ++t) {
    v["word_tier" + std::to_string(t)] = c.word_tier[t].load();
  }
  return v;
}

// The adaptive dispatcher must give representation-independent answers:
// the same A and B presented as a hash set, a sorted array, or a kBitset,
// kArray or kRun zone row (with and without the word form of A) agree
// with the reference for every kernel and θ, under the default policy
// and both Fig. 5 ablations.  The ablations change only the kernels'
// exits, never the route: all three policies bump identical counters for
// every input, and every route is taken somewhere.  Odd rounds use a
// 40-bit zone, so A and B overlap heavily and the exits fire late.
TEST(IntersectPolicyDispatch, AllRepresentationsAgree) {
  Rng rng(444);
  const VertexId zone_begin = 5;
  const mc::IntersectPolicy policies[] = {
      {true, true}, {false, false}, {true, false}};
  std::map<std::string, std::uint64_t> totals;

  for (int round = 0; round < 120; ++round) {
    const VertexId zone_bits = round % 2 ? 40 : 130;
    auto a = random_zone_set(rng, 30, zone_begin, zone_bits);
    auto b = random_zone_set(rng, 30, zone_begin, zone_bits);
    SparseWordSet aw;
    aw.build({a.data(), a.size()}, zone_begin);
    OwnedRow owned(b, zone_begin, zone_bits);
    OwnedContainers containers(b, zone_begin, zone_bits);
    HopscotchSet hs = make_set(b);

    NeighborhoodView hash_view(&hs, {});
    NeighborhoodView sorted_view(nullptr, {b.data(), b.size()});
    NeighborhoodView bitset_view(nullptr, {}, owned.zone_row());
    NeighborhoodView array_view(nullptr, {}, containers.array_row);
    NeighborhoodView run_view(nullptr, {}, containers.run_row);
    const NeighborhoodView* views[] = {&hash_view, &sorted_view, &bitset_view,
                                       &array_view, &run_view};

    const auto expected = intersect_reference(a, b);
    const std::int64_t truth = static_cast<std::int64_t>(expected.size());
    std::span<const VertexId> as(a);

    for (const NeighborhoodView* view : views) {
      for (const SparseWordSet* words :
           {static_cast<const SparseWordSet*>(nullptr),
            static_cast<const SparseWordSet*>(&aw)}) {
        mc::KernelCounters counters[std::size(policies)];
        for (std::size_t i = 0; i < std::size(policies); ++i) {
          mc::IntersectPolicy p = policies[i];
          p.counters = &counters[i];
          for (std::int64_t theta = -1; theta <= 10; ++theta) {
            EXPECT_EQ(p.size_gt_bool(as, *view, theta, words), truth > theta);
            EXPECT_EQ(p.size_gt_val(as, *view, theta, words),
                      truth > theta ? static_cast<int>(truth) : kTooSmall);
            std::vector<VertexId> out(a.size() + 1);
            int g = p.gt(as, *view, out.data(), theta, words);
            if (truth > theta) {
              ASSERT_EQ(g, static_cast<int>(truth));
              out.resize(expected.size());
              std::sort(out.begin(), out.end());
              EXPECT_EQ(out, expected);
            } else {
              EXPECT_EQ(g, kTooSmall);
            }
          }
        }
        const auto reference = counter_values(counters[0]);
        EXPECT_EQ(counter_values(counters[1]), reference) << "no early exits";
        EXPECT_EQ(counter_values(counters[2]), reference) << "no second exit";
        for (const auto& [name, n] : reference) totals[name] += n;
      }
    }
  }
  // Every representation path was exercised and counted.
  for (const char* route : {"bitset_word", "bitset_probe", "array_gallop",
                            "run_and", "hash", "hash_batched", "merge"}) {
    EXPECT_GT(totals[route], 0u) << route;
  }
}

TEST(IntersectPolicyDispatch, ShapeHeuristicsPickExpectedKernels) {
  mc::KernelCounters counters;
  mc::IntersectPolicy policy;
  policy.counters = &counters;

  // Large sorted B vs small A -> binary-search probing ("gallop").
  std::vector<VertexId> big_b;
  for (VertexId v = 0; v < 4096; ++v) big_b.push_back(v * 2);
  std::vector<VertexId> small_a = {4, 8, 600};
  NeighborhoodView big_sorted(nullptr, {big_b.data(), big_b.size()});
  policy.size_gt_bool(small_a, big_sorted, 1);
  EXPECT_EQ(counters.gallop.load(), 1u);
  EXPECT_EQ(counters.merge.load(), 0u);

  // Comparable sorted sizes -> merge.
  std::vector<VertexId> mid_b(big_b.begin(), big_b.begin() + 8);
  NeighborhoodView mid_sorted(nullptr, {mid_b.data(), mid_b.size()});
  policy.size_gt_bool(small_a, mid_sorted, 1);
  EXPECT_EQ(counters.merge.load(), 1u);

  // Hash-backed B: batched when |A| >= kBatchMin, serial below.
  HopscotchSet hs = make_set(big_b);
  NeighborhoodView hashed(&hs, {});
  policy.size_gt_bool(small_a, hashed, 1);
  EXPECT_EQ(counters.hash.load(), 1u);
  std::vector<VertexId> big_a(big_b.begin(), big_b.end());
  policy.size_gt_bool(big_a, hashed, 1);
  EXPECT_EQ(counters.hash_batched.load(), 1u);
}

}  // namespace
}  // namespace lazymc
