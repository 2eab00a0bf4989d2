// Tests for the intersection kernels, especially the early-exit semantics
// of Algorithms 3 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hashset/hopscotch_set.hpp"
#include "intersect/intersect.hpp"
#include "support/random.hpp"

namespace lazymc {
namespace {

std::vector<VertexId> vec(std::initializer_list<VertexId> v) { return v; }

HopscotchSet make_set(const std::vector<VertexId>& v) {
  HopscotchSet s(v.size());
  for (VertexId x : v) s.insert(x);
  return s;
}

TEST(SortedLookup, BinarySearchContains) {
  auto data = vec({1, 3, 5, 7});
  SortedLookup look(data);
  EXPECT_TRUE(look.contains(1));
  EXPECT_TRUE(look.contains(7));
  EXPECT_FALSE(look.contains(2));
  EXPECT_FALSE(look.contains(0));
  EXPECT_EQ(look.size(), 4u);
}

TEST(IntersectSorted, BasicMerge) {
  auto a = vec({1, 2, 3, 5, 8});
  auto b = vec({2, 3, 4, 8, 9});
  auto out = intersect_sorted(a, b);
  EXPECT_EQ(out, vec({2, 3, 8}));
}

TEST(IntersectSorted, DisjointAndEmpty) {
  auto a = vec({1, 2});
  auto b = vec({3, 4});
  EXPECT_TRUE(intersect_sorted(a, b).empty());
  EXPECT_TRUE(intersect_sorted({}, b).empty());
  EXPECT_TRUE(intersect_sorted(a, {}).empty());
}

TEST(IntersectHash, MatchesReference) {
  auto a = vec({5, 1, 9, 12, 40});
  auto b = vec({9, 40, 2});
  HopscotchSet bs = make_set(b);
  std::vector<VertexId> out(a.size());
  std::size_t n = intersect_hash(std::span<const VertexId>(a), bs, out.data());
  out.resize(n);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, vec({9, 40}));
  EXPECT_EQ(intersect_size(std::span<const VertexId>(a), bs), 2u);
}

// ---- intersect_gt (Algorithm 3) -------------------------------------------

TEST(IntersectGt, ReturnsExactResultWhenAboveThreshold) {
  auto a = vec({1, 2, 3, 4, 5});
  HopscotchSet b = make_set(vec({2, 3, 5, 9}));
  std::vector<VertexId> out(a.size());
  int n = intersect_gt(std::span<const VertexId>(a), b, out.data(), 2);
  ASSERT_EQ(n, 3);
  out.resize(3);
  EXPECT_EQ(out, vec({2, 3, 5}));
}

TEST(IntersectGt, FailsWhenAtOrBelowThreshold) {
  auto a = vec({1, 2, 3, 4, 5});
  HopscotchSet b = make_set(vec({2, 3, 5, 9}));
  std::vector<VertexId> out(a.size());
  // |A ∩ B| == 3, not > 3.
  EXPECT_EQ(intersect_gt(std::span<const VertexId>(a), b, out.data(), 3),
            kTooSmall);
  EXPECT_EQ(intersect_gt(std::span<const VertexId>(a), b, out.data(), 4),
            kTooSmall);
}

TEST(IntersectGt, GuardsOnInputSizes) {
  auto a = vec({1, 2});
  HopscotchSet b = make_set(vec({1, 2, 3, 4, 5}));
  std::vector<VertexId> out(5);
  // n = 2 <= theta = 2: impossible regardless of content.
  EXPECT_EQ(intersect_gt(std::span<const VertexId>(a), b, out.data(), 2),
            kTooSmall);
  // m <= theta.
  auto a2 = vec({1, 2, 3, 4, 5, 6});
  HopscotchSet b2 = make_set(vec({1, 2}));
  EXPECT_EQ(intersect_gt(std::span<const VertexId>(a2), b2, out.data(), 2),
            kTooSmall);
}

TEST(IntersectGt, NegativeThetaGivesExactIntersection) {
  auto a = vec({1, 2, 3});
  HopscotchSet b = make_set(vec({7, 8}));
  std::vector<VertexId> out(3);
  int n = intersect_gt(std::span<const VertexId>(a), b, out.data(), -1);
  EXPECT_EQ(n, 0);  // empty but reported exactly, since 0 > -1
}

// ---- intersect_size_gt_val -------------------------------------------------

TEST(IntersectSizeGtVal, ExactSizeWhenAbove) {
  auto a = vec({1, 2, 3, 4, 5, 6});
  HopscotchSet b = make_set(vec({2, 4, 6, 8}));
  EXPECT_EQ(intersect_size_gt_val(std::span<const VertexId>(a), b, 1), 3);
  EXPECT_EQ(intersect_size_gt_val(std::span<const VertexId>(a), b, 2), 3);
  EXPECT_EQ(intersect_size_gt_val(std::span<const VertexId>(a), b, 3),
            kTooSmall);
}

TEST(IntersectSizeGtVal, EarlyExitDoesNotChangeAnswer) {
  Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    std::vector<VertexId> a, b;
    for (int i = 0; i < 30; ++i) {
      a.push_back(static_cast<VertexId>(rng.next_below(60)));
      b.push_back(static_cast<VertexId>(rng.next_below(60)));
    }
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    HopscotchSet bs = make_set(b);
    std::size_t truth = intersect_size(std::span<const VertexId>(a), bs);
    for (std::int64_t theta = -1; theta <= 12; ++theta) {
      int r = intersect_size_gt_val(std::span<const VertexId>(a), bs, theta);
      if (static_cast<std::int64_t>(truth) > theta) {
        EXPECT_EQ(r, static_cast<int>(truth));
      } else {
        EXPECT_EQ(r, kTooSmall);
      }
    }
  }
}

// ---- intersect_size_gt_bool (Algorithm 4) ----------------------------------

TEST(IntersectSizeGtBool, BasicTrueFalse) {
  auto a = vec({1, 2, 3, 4, 5});
  HopscotchSet b = make_set(vec({1, 2, 3}));
  EXPECT_TRUE(intersect_size_gt_bool(std::span<const VertexId>(a), b, 2));
  EXPECT_FALSE(intersect_size_gt_bool(std::span<const VertexId>(a), b, 3));
}

TEST(IntersectSizeGtBool, SecondExitFiresOnLargePrefixHit) {
  // All of A's first elements hit: the second exit should answer true
  // before scanning the (large) tail.  Correctness is what we check here.
  std::vector<VertexId> a;
  for (VertexId v = 0; v < 1000; ++v) a.push_back(v);
  HopscotchSet b = make_set(a);  // everything hits
  EXPECT_TRUE(intersect_size_gt_bool(std::span<const VertexId>(a), b, 10));
  EXPECT_TRUE(
      intersect_size_gt_bool(std::span<const VertexId>(a), b, 10, false));
}

TEST(IntersectSizeGtBool, BothVariantsAgreeExhaustively) {
  Rng rng(23);
  for (int round = 0; round < 300; ++round) {
    std::vector<VertexId> a, b;
    std::size_t na = 1 + rng.next_below(25);
    std::size_t nb = 1 + rng.next_below(25);
    for (std::size_t i = 0; i < na; ++i) {
      a.push_back(static_cast<VertexId>(rng.next_below(40)));
    }
    for (std::size_t i = 0; i < nb; ++i) {
      b.push_back(static_cast<VertexId>(rng.next_below(40)));
    }
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    HopscotchSet bs = make_set(b);
    std::size_t truth = intersect_size(std::span<const VertexId>(a), bs);
    for (std::int64_t theta = -1; theta <= 10; ++theta) {
      bool expected = static_cast<std::int64_t>(truth) > theta;
      EXPECT_EQ(
          intersect_size_gt_bool(std::span<const VertexId>(a), bs, theta, true),
          expected)
          << "round " << round << " theta " << theta;
      EXPECT_EQ(intersect_size_gt_bool(std::span<const VertexId>(a), bs, theta,
                                       false),
                expected)
          << "round " << round << " theta " << theta << " (no 2nd exit)";
    }
  }
}

TEST(IntersectSizeGtBool, EmptyInputs) {
  std::vector<VertexId> empty;
  HopscotchSet b = make_set(vec({1, 2, 3}));
  EXPECT_FALSE(intersect_size_gt_bool(std::span<const VertexId>(empty), b, 0));
  // |{} ∩ B| = 0 > -1 is true.
  EXPECT_TRUE(intersect_size_gt_bool(std::span<const VertexId>(empty), b, -1));
}

TEST(Intersect, WorksWithSortedLookupAsB) {
  auto a = vec({1, 3, 5, 7, 9});
  auto b = vec({3, 7, 11});
  SortedLookup look(b);
  EXPECT_EQ(intersect_size_gt_val(std::span<const VertexId>(a), look, 1), 2);
  EXPECT_TRUE(intersect_size_gt_bool(std::span<const VertexId>(a), look, 1));
  EXPECT_FALSE(intersect_size_gt_bool(std::span<const VertexId>(a), look, 2));
}

TEST(IntersectGt, AgreesWithReferenceRandomized) {
  Rng rng(29);
  for (int round = 0; round < 200; ++round) {
    std::vector<VertexId> a, b;
    std::size_t na = rng.next_below(30);
    std::size_t nb = rng.next_below(30);
    for (std::size_t i = 0; i < na; ++i) {
      a.push_back(static_cast<VertexId>(rng.next_below(50)));
    }
    for (std::size_t i = 0; i < nb; ++i) {
      b.push_back(static_cast<VertexId>(rng.next_below(50)));
    }
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    HopscotchSet bs = make_set(b);
    auto expected = intersect_reference(a, b);
    for (std::int64_t theta = -1; theta <= 8; ++theta) {
      std::vector<VertexId> out(a.size() + 1);
      int r = intersect_gt(std::span<const VertexId>(a), bs, out.data(), theta);
      if (static_cast<std::int64_t>(expected.size()) > theta) {
        ASSERT_EQ(r, static_cast<int>(expected.size()));
        out.resize(expected.size());
        std::sort(out.begin(), out.end());
        EXPECT_EQ(out, expected);
      } else {
        EXPECT_EQ(r, kTooSmall);
      }
    }
  }
}

}  // namespace
}  // namespace lazymc
