// Hybrid-row containers: bit-identity of the array / bitset / run kernels
// against the word-parallel reference at container-boundary densities
// (63/64/65-word zones, 4095/4096/4097-element rows, empty rows), the
// LazyGraph container-selection thresholds, byte accounting, and
// concurrent build safety.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <vector>

#include "graph/generators.hpp"
#include "intersect/hybrid_row.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"

namespace lazymc {
namespace {

// ---- container construction helpers (zone coordinates) --------------------

struct RowSet {
  VertexId zone_begin = 0;
  VertexId zone_bits = 0;
  std::vector<std::uint32_t> offs;  // sorted unique zone offsets

  simd::AlignedWords words;             // bitset payload
  std::vector<std::uint32_t> run_u32;   // (start, len) pairs
  simd::AlignedWords array_storage;     // array payload in carved words
  simd::AlignedWords run_storage;       // run payload in carved words

  void finish() {
    std::sort(offs.begin(), offs.end());
    offs.erase(std::unique(offs.begin(), offs.end()), offs.end());
    words.assign((zone_bits + 63) / 64, 0);
    for (std::uint32_t o : offs) words[o >> 6] |= 1ULL << (o & 63);
    run_u32.clear();
    for (std::size_t i = 0; i < offs.size(); ++i) {
      if (i == 0 || offs[i] != offs[i - 1] + 1) {
        run_u32.push_back(offs[i]);
        run_u32.push_back(1);
      } else {
        ++run_u32.back();
      }
    }
    // An empty vector's data() may be null, which memcpy must not see
    // even for zero bytes.
    array_storage.assign((offs.size() + 1) / 2 + 1, 0);
    if (!offs.empty()) {
      std::memcpy(array_storage.data(), offs.data(), offs.size() * 4);
    }
    run_storage.assign(run_u32.size() / 2 + 1, 0);
    if (!run_u32.empty()) {
      std::memcpy(run_storage.data(), run_u32.data(), run_u32.size() * 4);
    }
  }

  HybridRow array_row() const {
    return HybridRow{array_storage.data(), zone_begin, zone_bits,
                     static_cast<std::uint32_t>(offs.size()),
                     static_cast<std::uint32_t>(offs.size()),
                     RowContainer::kArray};
  }
  HybridRow bitset_row_hybrid() const {
    return HybridRow{words.data(), zone_begin, zone_bits,
                     static_cast<std::uint32_t>(offs.size()),
                     static_cast<std::uint32_t>(words.size()),
                     RowContainer::kBitset};
  }
  HybridRow run_row() const {
    return HybridRow{run_storage.data(), zone_begin, zone_bits,
                     static_cast<std::uint32_t>(offs.size()),
                     static_cast<std::uint32_t>(run_u32.size() / 2),
                     RowContainer::kRun};
  }
  BitsetRow plain_row() const {
    return BitsetRow{words.data(), zone_begin, zone_bits,
                     static_cast<std::uint32_t>(offs.size())};
  }
};

RowSet random_row(VertexId zone_begin, VertexId zone_bits, double density,
                  std::uint64_t seed) {
  RowSet r;
  r.zone_begin = zone_begin;
  r.zone_bits = zone_bits;
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution keep(density);
  for (VertexId i = 0; i < zone_bits; ++i) {
    if (keep(rng)) r.offs.push_back(i);
  }
  r.finish();
  return r;
}

RowSet clustered_row(VertexId zone_begin, VertexId zone_bits,
                     std::initializer_list<std::pair<std::uint32_t,
                                                     std::uint32_t>> runs) {
  RowSet r;
  r.zone_begin = zone_begin;
  r.zone_bits = zone_bits;
  for (auto [start, len] : runs) {
    for (std::uint32_t k = 0; k < len; ++k) r.offs.push_back(start + k);
  }
  r.finish();
  return r;
}

std::vector<VertexId> random_sorted_a(VertexId zone_begin, VertexId zone_bits,
                                      double density, std::uint64_t seed) {
  std::vector<VertexId> a;
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution keep(density);
  for (VertexId i = 0; i < zone_bits; ++i) {
    if (keep(rng)) a.push_back(zone_begin + i);
  }
  return a;
}

/// Exercises every kernel entry point for every container against the
/// exact reference: the early exits are guaranteed-outcome bounds, so the
/// results are a pure function of (|A ∩ B|, theta) — any deviation means
/// a container produced different words than the packed bitset.  θ = -1
/// is the exact intersection.
void expect_kernels_agree(const std::vector<VertexId>& a, const RowSet& b) {
  SparseWordSet a_ws;
  a_ws.build({a.data(), a.size()}, b.zone_begin);

  std::size_t expected = 0;
  std::vector<VertexId> expected_set;
  {
    const BitsetRow row = b.plain_row();
    for (VertexId v : a) {
      if (row.contains(v)) {
        ++expected;
        expected_set.push_back(v);
      }
    }
  }

  const HybridRow rows[] = {b.array_row(), b.bitset_row_hybrid(),
                            b.run_row()};
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t e = static_cast<std::int64_t>(expected);
  for (std::int64_t theta : {std::int64_t{-1}, std::int64_t{0}, e - 1, e,
                             e + 1, n}) {
    for (const HybridRow& hr : rows) {
      const char* kind = row_container_name(hr.kind);
      const int want_val = e > theta ? static_cast<int>(e) : kTooSmall;
      EXPECT_EQ(intersect_size_gt_val(a_ws, hr, theta), want_val)
          << kind << " theta=" << theta;
      EXPECT_EQ(intersect_size_gt_bool(a_ws, hr, theta, true), e > theta)
          << kind << " theta=" << theta;
      EXPECT_EQ(intersect_size_gt_bool(a_ws, hr, theta, false), e > theta)
          << kind << " theta=" << theta << " (no second exit)";
      std::vector<VertexId> out(a.size() + 1);
      const int got = intersect_gt(a_ws, hr, out.data(), theta);
      if (e > theta) {
        ASSERT_EQ(got, static_cast<int>(expected)) << kind;
        out.resize(expected);
        EXPECT_EQ(out, expected_set) << kind << " theta=" << theta;
      } else {
        EXPECT_EQ(got, kTooSmall) << kind << " theta=" << theta;
      }
    }
    // Membership-probe path (MembershipSet concept): the generic
    // templates must agree too.
    for (const HybridRow& hr : rows) {
      EXPECT_EQ(intersect_size_gt_val({a.data(), a.size()}, hr, theta),
                e > theta ? static_cast<int>(e) : kTooSmall)
          << row_container_name(hr.kind) << " probe theta=" << theta;
    }
  }
}

TEST(HybridRowKernels, WordBoundaryZones) {
  // 63-, 64- and 65-word zones plus sub-word zones: the word loop's tail
  // handling must be identical in every container.
  for (VertexId zone_bits : {63u, 64u, 65u, 4032u, 4096u, 4160u}) {
    for (double density : {0.02, 0.3, 0.9}) {
      RowSet b = random_row(1000, zone_bits, density, zone_bits * 7 + 1);
      auto a = random_sorted_a(1000, zone_bits, 0.4, zone_bits * 13 + 5);
      if (a.empty()) continue;
      expect_kernels_agree(a, b);
    }
  }
}

TEST(HybridRowKernels, ElementCountEdges) {
  // Rows of exactly 4095/4096/4097 elements (the array-max boundary) in
  // an 8192-bit zone; every element count must round-trip through every
  // container encoding.
  for (std::uint32_t count : {4095u, 4096u, 4097u}) {
    RowSet b;
    b.zone_begin = 64;
    b.zone_bits = 8192;
    std::mt19937_64 rng(count);
    std::vector<std::uint32_t> all(8192);
    for (std::uint32_t i = 0; i < 8192; ++i) all[i] = i;
    std::shuffle(all.begin(), all.end(), rng);
    b.offs.assign(all.begin(), all.begin() + count);
    b.finish();
    ASSERT_EQ(b.offs.size(), count);
    auto a = random_sorted_a(64, 8192, 0.5, count * 3);
    expect_kernels_agree(a, b);
  }
}

TEST(HybridRowKernels, RunSpansCrossWordBoundaries) {
  RowSet b = clustered_row(0, 640,
                           {{0, 64}, {70, 10}, {126, 4}, {200, 130},
                            {639, 1}});
  ASSERT_EQ(b.run_u32.size() / 2, 5u);
  auto a = random_sorted_a(0, 640, 0.5, 99);
  expect_kernels_agree(a, b);
  // Full-zone run (one span covering everything).  The word kernels
  // require A and B to share zone geometry, so rebuild A over 130 bits.
  RowSet full = clustered_row(0, 130, {{0, 130}});
  ASSERT_EQ(full.run_u32.size() / 2, 1u);
  expect_kernels_agree(random_sorted_a(0, 130, 0.5, 98), full);
}

TEST(HybridRowKernels, EmptyRows) {
  const HybridRow empty{kEmptyHybridPayload, 10, 100, 0, 0,
                        RowContainer::kArray};
  EXPECT_TRUE(empty.valid());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.contains(10));
  auto a = random_sorted_a(10, 100, 0.5, 3);
  SparseWordSet a_ws;
  a_ws.build({a.data(), a.size()}, 10);
  EXPECT_EQ(intersect_size_gt_val(a_ws, empty, -1), 0);
  EXPECT_EQ(intersect_size_gt_val(a_ws, empty, 0), kTooSmall);
  EXPECT_FALSE(intersect_size_gt_bool(a_ws, empty, 0, true));
  // Empty A against any container.
  SparseWordSet empty_a;
  empty_a.build({}, 0);
  RowSet b = random_row(0, 100, 0.5, 4);
  EXPECT_EQ(intersect_size_gt_val(empty_a, b.array_row(), -1), 0);
  EXPECT_EQ(intersect_size_gt_val(empty_a, b.run_row(), -1), 0);
}

TEST(HybridRowKernels, ArrayMergeAndGallopPaths) {
  // The no-word-form paths: merge (hybrid_array_*) and gallop
  // (HybridArrayLookup through the generic templates).
  RowSet b = random_row(50, 400, 0.2, 31);
  auto a = random_sorted_a(0, 450, 0.3, 32);  // includes below-zone ids
  const HybridRow row = b.array_row();
  std::size_t expected = 0;
  std::vector<VertexId> expected_set;
  for (VertexId v : a) {
    if (row.contains(v)) {
      ++expected;
      expected_set.push_back(v);
    }
  }
  const std::int64_t e = static_cast<std::int64_t>(expected);
  for (std::int64_t theta : {std::int64_t{-1}, std::int64_t{0}, e - 1, e}) {
    EXPECT_EQ(hybrid_array_size_gt_val({a.data(), a.size()}, row, theta),
              e > theta ? static_cast<int>(e) : kTooSmall)
        << theta;
    EXPECT_EQ(hybrid_array_size_gt_bool({a.data(), a.size()}, row, theta),
              e > theta)
        << theta;
    std::vector<VertexId> out(a.size() + 1);
    const int got = hybrid_array_gt({a.data(), a.size()}, row, out.data(),
                                    theta);
    if (e > theta) {
      ASSERT_EQ(got, static_cast<int>(expected)) << theta;
      out.resize(expected);
      EXPECT_EQ(out, expected_set);
    } else {
      EXPECT_EQ(got, kTooSmall) << theta;
    }
    EXPECT_EQ(intersect_size_gt_val({a.data(), a.size()},
                                    HybridArrayLookup(row), theta),
              e > theta ? static_cast<int>(e) : kTooSmall)
        << theta;
  }
}

// ---- LazyGraph container selection ----------------------------------------

// The --rep hybrid row policy.
constexpr bool kHybrid = true;

struct ZoneFixture {
  Graph g;
  kcore::CoreDecomposition core;
  kcore::VertexOrder order;
  std::atomic<VertexId> incumbent{0};

  explicit ZoneFixture(Graph graph) : g(std::move(graph)) {
    core = kcore::coreness(g);
    order = kcore::order_by_coreness_degree(g, core.coreness);
  }
  LazyGraph make() { return LazyGraph(g, order, core.coreness, &incumbent); }
};

Graph graph_from_edges(VertexId n,
                       const std::vector<std::pair<VertexId, VertexId>>& e) {
  std::vector<std::vector<VertexId>> adj(n);
  for (auto [u, v] : e) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::vector<EdgeId> offsets(n + 1, 0);
  std::vector<VertexId> flat;
  for (VertexId v = 0; v < n; ++v) {
    std::sort(adj[v].begin(), adj[v].end());
    offsets[v + 1] = offsets[v] + adj[v].size();
    flat.insert(flat.end(), adj[v].begin(), adj[v].end());
  }
  return Graph(std::move(offsets), std::move(flat));
}

TEST(LazyGraphHybrid, RowsMatchSortedNeighborhoodAndAccounting) {
  // A 1500-bit zone (24-word rows) with ~15 in-zone neighbors per row:
  // the sorted array (8 carved words) undercuts the packed words.
  ZoneFixture f(gen::gnp(1500, 0.01, 777));
  LazyGraph lazy = f.make();
  lazy.enable_rows(1 << 20, kHybrid);
  ASSERT_TRUE(lazy.rows_enabled());
  const VertexId zb = lazy.zone_begin();
  for (VertexId v = zb; v < lazy.num_vertices(); ++v) {
    HybridRow row = lazy.zone_row(v);
    ASSERT_TRUE(row.valid());
    auto sorted = lazy.sorted_neighborhood(v);
    std::size_t in_zone = 0;
    for (VertexId u : sorted) {
      if (u >= zb) {
        EXPECT_TRUE(row.contains(u)) << v << " " << u;
        ++in_zone;
      } else {
        EXPECT_FALSE(row.contains(u));
      }
    }
    EXPECT_EQ(row.size(), in_zone);
  }
  const auto s = lazy.stats();
  EXPECT_EQ(s.bitset_built,
            s.hybrid_rows_array + s.hybrid_rows_bitset + s.hybrid_rows_run);
  EXPECT_EQ(s.bitset_bytes,
            s.hybrid_array_bytes + s.hybrid_bitset_bytes + s.hybrid_run_bytes);
  EXPECT_GT(s.hybrid_rows_array, 0u);  // 0.15 density at 120 bits: sparse
}

TEST(LazyGraphHybrid, DenseScatteredRowsPickBitset) {
  // gnp(300, 0.5): ~150 scattered neighbors in a 300-bit zone — the array
  // (~600 bytes) and run (~one pair per element) containers both cost
  // more than the 40-byte packed row.
  ZoneFixture f(gen::gnp(300, 0.5, 778));
  LazyGraph lazy = f.make();
  lazy.enable_rows(1 << 22, kHybrid);
  ASSERT_TRUE(lazy.rows_enabled());
  for (VertexId v = lazy.zone_begin(); v < lazy.num_vertices(); ++v) {
    ASSERT_TRUE(lazy.zone_row(v).valid());
  }
  const auto s = lazy.stats();
  EXPECT_GT(s.hybrid_rows_bitset, 0u);
  EXPECT_EQ(s.hybrid_rows_array + s.hybrid_rows_bitset + s.hybrid_rows_run,
            s.bitset_built);
}

TEST(LazyGraphHybrid, ClusteredRowsPickRun) {
  // A 600-clique relabels to one contiguous block at the top of the
  // order; a hub adjacent to every member gets a one-run row, far
  // smaller than either the array (600 u32s) or the packed words.
  std::vector<std::pair<VertexId, VertexId>> edges;
  const VertexId k = 600;
  const VertexId n = 2000;
  for (VertexId i = 0; i < k; ++i) {
    for (VertexId j = i + 1; j < k; ++j) edges.push_back({i, j});
  }
  const VertexId hub = k;
  for (VertexId i = 0; i < k; ++i) edges.push_back({hub, i});
  for (VertexId v = k + 2; v < n; ++v) edges.push_back({v, v - 1});
  ZoneFixture f(graph_from_edges(n, edges));
  LazyGraph lazy = f.make();
  lazy.enable_rows(1 << 22, kHybrid);
  ASSERT_TRUE(lazy.rows_enabled());
  // Find the hub's relabelled id and build its row.
  const VertexId hub_new = f.order.orig_to_new[hub];
  ASSERT_GE(hub_new, lazy.zone_begin());
  HybridRow row = lazy.zone_row(hub_new);
  ASSERT_TRUE(row.valid());
  EXPECT_EQ(row.kind, RowContainer::kRun);
  EXPECT_EQ(row.size(), k);
  EXPECT_LE(row.units, 2u);  // the clique block (+ at most one neighbor run)
  const auto s = lazy.stats();
  EXPECT_GT(s.hybrid_rows_run, 0u);
}

TEST(LazyGraphHybrid, ArrayMaxThresholdIsExact) {
  // A zone wide enough (~140k bits) that a 4096-element array genuinely
  // undercuts the packed words: degree 4096 stays an array, degree 4097
  // crosses --hybrid-array-max and goes dense.
  // Leaves 2..8194 all share (coreness 1, degree 1), so the stable
  // counting sort keeps them in ascending-id order; assigning hubs to
  // alternating ids scatters each hub's neighbors across the tie block
  // and keeps the run container out of contention (~one run per bit).
  const VertexId n = 140000;
  std::vector<std::pair<VertexId, VertexId>> edges;
  const VertexId hub_a = 0, hub_b = 1;
  for (VertexId i = 0; i < 4096; ++i) {
    edges.push_back({hub_a, 3 + i * 2});  // odd leaves
  }
  for (VertexId i = 0; i < 4097; ++i) {
    edges.push_back({hub_b, 2 + i * 2});  // even leaves
  }
  ZoneFixture f(graph_from_edges(n, edges));
  LazyGraph lazy = f.make();
  lazy.enable_rows(std::size_t{64} << 20, kHybrid);
  ASSERT_TRUE(lazy.rows_enabled());
  HybridRow ra = lazy.zone_row(f.order.orig_to_new[hub_a]);
  HybridRow rb = lazy.zone_row(f.order.orig_to_new[hub_b]);
  ASSERT_TRUE(ra.valid());
  ASSERT_TRUE(rb.valid());
  EXPECT_EQ(ra.size(), 4096u);
  EXPECT_EQ(rb.size(), 4097u);
  EXPECT_EQ(ra.kind, RowContainer::kArray);
  EXPECT_NE(rb.kind, RowContainer::kArray);
}

TEST(LazyGraphHybrid, EmptyRowsCostNoBytesOnlyUnderHybrid) {
  // An isolated vertex sits in the zone (incumbent 0) with an empty
  // filtered neighborhood: its hybrid row is valid, empty, and charges
  // nothing, while its bitset-only row still carves one full stride.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i < 5; ++i) {
    for (VertexId j = i + 1; j < 5; ++j) edges.push_back({i, j});
  }
  ZoneFixture f(graph_from_edges(6, edges));  // vertex 5 isolated
  LazyGraph lazy = f.make();
  lazy.enable_rows(1 << 20, kHybrid);
  ASSERT_TRUE(lazy.rows_enabled());
  const VertexId iso = f.order.orig_to_new[5];
  ASSERT_GE(iso, lazy.zone_begin());
  HybridRow row = lazy.zone_row(iso);
  ASSERT_TRUE(row.valid());
  EXPECT_EQ(row.size(), 0u);
  EXPECT_EQ(row.units, 0u);
  const auto s = lazy.stats();
  EXPECT_EQ(s.bitset_built, 1u);
  EXPECT_EQ(s.hybrid_rows_array, 1u);
  EXPECT_EQ(s.hybrid_array_bytes, 0u);
  EXPECT_EQ(s.bitset_bytes, 0u);

  LazyGraph plain = f.make();
  plain.enable_bitset_rows(1 << 20);
  const HybridRow plain_row = plain.zone_row(iso);
  ASSERT_TRUE(plain_row.valid());
  EXPECT_EQ(plain_row.kind, RowContainer::kBitset);
  EXPECT_EQ(plain_row.size(), 0u);
  const auto ps = plain.stats();
  EXPECT_EQ(ps.bitset_built, 1u);
  EXPECT_EQ(ps.bitset_bytes, 64u);  // one word, padded to an 8-word stride
  EXPECT_EQ(ps.hybrid_rows_array + ps.hybrid_rows_bitset + ps.hybrid_rows_run,
            0u);
}

TEST(LazyGraphHybrid, BudgetExhaustionFallsBackGracefully) {
  ZoneFixture f(gen::gnp(100, 0.3, 779));
  LazyGraph lazy = f.make();
  // init_zone's bookkeeping plus two words: no non-empty container fits
  // (the smallest carve is one 64-byte line), so the first build
  // exhausts the budget.
  const std::size_t bookkeeping =
      100 * (sizeof(std::uint64_t*) + sizeof(std::uint32_t));
  lazy.enable_rows(bookkeeping + 16, kHybrid);
  if (!lazy.rows_enabled()) GTEST_SKIP() << "bookkeeping estimate too low";
  EXPECT_FALSE(lazy.zone_row(0).valid());
  NeighborhoodView view = lazy.membership(0);
  EXPECT_FALSE(view.has_row());
  EXPECT_GT(view.size(), 0u);
  EXPECT_EQ(lazy.stats().bitset_built, 0u);
}

TEST(LazyGraphHybrid, ConcurrentBuildsAreSafe) {
  ZoneFixture f(gen::gnp(400, 0.2, 780));
  LazyGraph lazy = f.make();
  lazy.enable_rows(1 << 22, kHybrid);
  ASSERT_TRUE(lazy.rows_enabled());
  set_num_threads(8);
  const VertexId zb = lazy.zone_begin();
  const VertexId n = lazy.num_vertices();
  std::atomic<std::size_t> mismatches{0};
  parallel_for(0, (n - zb) * 4, [&](std::size_t i) {
    const VertexId v = zb + static_cast<VertexId>(i % (n - zb));
    HybridRow row = lazy.zone_row(v);
    if (!row.valid()) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    NeighborhoodView view = lazy.membership(v);
    if (!view.has_row() || view.size() != row.size()) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  }, 16);
  set_num_threads(0);
  EXPECT_EQ(mismatches.load(), 0u);
  const auto s = lazy.stats();
  EXPECT_EQ(s.bitset_built, static_cast<std::size_t>(n - zb));
  EXPECT_EQ(s.bitset_bytes,
            s.hybrid_array_bytes + s.hybrid_bitset_bytes + s.hybrid_run_bytes);
}

}  // namespace
}  // namespace lazymc
