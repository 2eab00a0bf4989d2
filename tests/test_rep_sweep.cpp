// Suite-wide correctness of the zone-row representations: omega must be
// identical with bitset rows forced on, hybrid rows forced on, rows forced
// off, and rows chosen adaptively, at 1, 2 and 8 threads — plus unit
// coverage of the zone/budget semantics of LazyGraph::enable_rows under the
// bitset-only policy.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <vector>

#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "mc/lazymc.hpp"
#include "support/parallel.hpp"

namespace lazymc {
namespace {

class RepSweepTest : public testing::TestWithParam<std::string> {
 protected:
  void TearDown() override { set_num_threads(0); }
};

TEST_P(RepSweepTest, OmegaIdenticalWithBitsetRowsOnAndOff) {
  auto inst = suite::make_instance(GetParam(), suite::Scale::kTiny);
  const Graph& g = inst.graph;

  set_num_threads(1);
  mc::LazyMCConfig off;
  off.neighborhood_rep = NeighborhoodRep::kHash;  // rows disabled entirely
  const auto baseline = mc::lazy_mc(g, off);
  ASSERT_TRUE(is_clique(g, baseline.clique));

  for (std::size_t threads : {1, 2, 8}) {
    set_num_threads(threads);
    for (NeighborhoodRep rep : {NeighborhoodRep::kBitset,
                                NeighborhoodRep::kHybrid,
                                NeighborhoodRep::kAuto,
                                NeighborhoodRep::kHash}) {
      mc::LazyMCConfig cfg;
      cfg.neighborhood_rep = rep;
      auto r = mc::lazy_mc(g, cfg);
      EXPECT_EQ(r.omega, baseline.omega)
          << GetParam() << " threads=" << threads
          << " rep=" << static_cast<int>(rep);
      EXPECT_TRUE(is_clique(g, r.clique));
      EXPECT_FALSE(r.timed_out);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllInstances, RepSweepTest,
                         testing::ValuesIn(suite::instance_names()),
                         [](const testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(RepSweep, TinyBudgetStillCorrectAndPreDensityAgrees) {
  // A 1 KB budget can hold almost no rows; dispatch must degrade to the
  // hash/sorted kernels per vertex without changing omega.  The
  // pre-extraction density estimate only moves the MC-vs-VC routing, so
  // omega is invariant under it too.
  auto inst = suite::make_instance("webcc", suite::Scale::kTiny);
  mc::LazyMCConfig base;
  auto expected = mc::lazy_mc(inst.graph, base).omega;

  mc::LazyMCConfig tiny;
  tiny.neighborhood_rep = NeighborhoodRep::kBitset;
  tiny.bitset_budget_bytes = 1024;
  EXPECT_EQ(mc::lazy_mc(inst.graph, tiny).omega, expected);

  mc::LazyMCConfig tiny_hybrid;
  tiny_hybrid.neighborhood_rep = NeighborhoodRep::kHybrid;
  tiny_hybrid.bitset_budget_bytes = 1024;
  EXPECT_EQ(mc::lazy_mc(inst.graph, tiny_hybrid).omega, expected);

  mc::LazyMCConfig zero;
  zero.neighborhood_rep = NeighborhoodRep::kAuto;
  zero.bitset_budget_bytes = 0;  // rows disabled
  EXPECT_EQ(mc::lazy_mc(inst.graph, zero).omega, expected);

  mc::LazyMCConfig pre;
  pre.pre_extraction_density = true;
  EXPECT_EQ(mc::lazy_mc(inst.graph, pre).omega, expected);
}

TEST(RepSweep, BitsetRepReportsWordKernelDispatch) {
  // An instance whose systematic phase does real work must route filter
  // intersections through the word-parallel kernel when rows are forced.
  auto inst = suite::make_instance("webcc", suite::Scale::kSmall);
  mc::LazyMCConfig cfg;
  cfg.neighborhood_rep = NeighborhoodRep::kBitset;
  auto r = mc::lazy_mc(inst.graph, cfg);
  ASSERT_GT(r.search.evaluated, 0u);
  EXPECT_GT(r.search.kernel_bitset_word, 0u);
  EXPECT_GT(r.lazy_graph.bitset_built, 0u);
  EXPECT_GT(r.lazy_graph.bitset_bytes, 0u);
  EXPECT_GT(r.lazy_graph.zone_size, 0u);
}

TEST(RepSweep, HybridRepReportsContainerKernelDispatch) {
  // Forced hybrid rows must still answer through the zone-row kernels:
  // every word-form dispatch lands on a container counter (bitset_word /
  // array_gallop / run_and), and the per-class build stats are populated.
  auto inst = suite::make_instance("webcc", suite::Scale::kSmall);
  mc::LazyMCConfig cfg;
  cfg.neighborhood_rep = NeighborhoodRep::kHybrid;
  auto r = mc::lazy_mc(inst.graph, cfg);
  ASSERT_GT(r.search.evaluated, 0u);
  EXPECT_GT(r.search.kernel_bitset_word + r.search.kernel_array_gallop +
                r.search.kernel_run_and,
            0u);
  const auto& g = r.lazy_graph;
  EXPECT_GT(g.bitset_built, 0u);
  EXPECT_EQ(g.bitset_built,
            g.hybrid_rows_array + g.hybrid_rows_bitset + g.hybrid_rows_run);
  EXPECT_EQ(g.bitset_bytes,
            g.hybrid_array_bytes + g.hybrid_bitset_bytes + g.hybrid_run_bytes);
  EXPECT_GT(g.zone_size, 0u);
}

TEST(RepSweep, HybridKeepsWordKernelsWhereBitsetStarves) {
  // The acceptance scenario: a budget sized so pure bitset rows exhaust
  // after a fraction of the zone, while the hybrid containers (measured
  // by an unconstrained probe) fit with headroom.  Hybrid must degrade
  // nothing, keep the intersections on the word kernels, and agree on
  // omega.  A moderately dense random graph is the compressible case:
  // coreness is high everywhere (the zone covers most of the graph) but
  // rows hold ~32 of 4000 possible bits, so the sorted-array container
  // undercuts the 64-word packed rows several times over.
  const Graph g = gen::gnp(4000, 0.008, 4242);

  mc::LazyMCConfig probe_b;
  probe_b.neighborhood_rep = NeighborhoodRep::kBitset;
  const auto ub = mc::lazy_mc(g, probe_b);
  mc::LazyMCConfig probe_h;
  probe_h.neighborhood_rep = NeighborhoodRep::kHybrid;
  const auto uh = mc::lazy_mc(g, probe_h);

  const std::size_t zone = ub.lazy_graph.zone_size;
  ASSERT_GT(zone, 0u);
  ASSERT_GT(ub.lazy_graph.bitset_built, 0u);
  // The instance only exercises the scenario if compression is real:
  // hybrid rows must cost well under half of what packed rows cost.
  const std::size_t bb = ub.lazy_graph.bitset_bytes;
  const std::size_t hb = uh.lazy_graph.bitset_bytes;
  ASSERT_LT(hb * 2, bb);

  // Hybrid fits with 50% headroom; pure bitset exhausts under this cap.
  const std::size_t bookkeeping =
      zone * (sizeof(std::uint64_t*) + sizeof(std::uint32_t));
  const std::size_t budget = bookkeeping + hb + hb / 2 + 8192;

  mc::LazyMCConfig starved_bitset;
  starved_bitset.neighborhood_rep = NeighborhoodRep::kBitset;
  starved_bitset.bitset_budget_bytes = budget;
  const auto rb = mc::lazy_mc(g, starved_bitset);

  mc::LazyMCConfig starved_hybrid;
  starved_hybrid.neighborhood_rep = NeighborhoodRep::kHybrid;
  starved_hybrid.bitset_budget_bytes = budget;
  const auto rh = mc::lazy_mc(g, starved_hybrid);

  EXPECT_EQ(rb.omega, ub.omega);
  EXPECT_EQ(rh.omega, ub.omega);
  // Pure bitset ran out of budget; hybrid built every row it was asked
  // for and lost none to degradation.
  EXPECT_LT(rb.lazy_graph.bitset_built, ub.lazy_graph.bitset_built);
  EXPECT_EQ(rh.lazy_graph.bitset_degraded, 0u);
  EXPECT_GE(rh.lazy_graph.bitset_built, uh.lazy_graph.bitset_built);
  EXPECT_GT(rh.search.kernel_bitset_word + rh.search.kernel_array_gallop +
                rh.search.kernel_run_and,
            rb.search.kernel_bitset_word);
}

// ---- LazyGraph zone / budget unit tests -----------------------------------

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

TEST(LazyGraphBitset, EveryRowIsABitsetContainerOfTheAdjacency) {
  ZoneFixture f(gen::gnp(80, 0.3, 555));
  f.incumbent.store(3);
  LazyGraph lazy = f.make();
  lazy.enable_bitset_rows(1 << 20);
  ASSERT_TRUE(lazy.rows_enabled());
  const VertexId zb = lazy.zone_begin();
  const std::size_t words = (lazy.zone_size() + 63) / 64;
  for (VertexId v = zb; v < lazy.num_vertices(); ++v) {
    HybridRow row = lazy.zone_row(v);
    ASSERT_TRUE(row.valid());
    EXPECT_TRUE(lazy.has_row(v));
    ASSERT_EQ(row.kind, RowContainer::kBitset) << v;
    EXPECT_EQ(row.units, words);
    // Built at the same incumbent, the row's words are exactly the
    // sorted filtered neighborhood clipped to the zone.
    std::vector<std::uint64_t> expected(words, 0);
    for (VertexId u : lazy.sorted_neighborhood(v)) {
      if (u >= zb) expected[(u - zb) >> 6] |= 1ULL << ((u - zb) & 63);
    }
    std::size_t in_zone = 0;
    for (std::size_t w = 0; w < words; ++w) {
      EXPECT_EQ(row.data[w], expected[w]) << v << " word " << w;
      in_zone += static_cast<std::size_t>(std::popcount(expected[w]));
    }
    EXPECT_EQ(row.size(), in_zone);
  }
  const auto s = lazy.stats();
  EXPECT_EQ(s.bitset_built, lazy.num_vertices() - zb);
  // Bitset-only rows are not counted per hybrid container.
  EXPECT_EQ(s.hybrid_rows_array + s.hybrid_rows_bitset + s.hybrid_rows_run,
            0u);
  EXPECT_EQ(s.hybrid_bitset_bytes, 0u);
}

TEST(LazyGraphBitset, BudgetBelowBookkeepingDisablesRows) {
  ZoneFixture f(gen::gnp(100, 0.3, 559));
  LazyGraph lazy = f.make();
  // The O(zone) bookkeeping alone exceeds a 64-byte budget: rows stay off.
  lazy.enable_bitset_rows(/*budget_bytes=*/64);
  EXPECT_FALSE(lazy.rows_enabled());
  EXPECT_FALSE(lazy.zone_row(0).valid());
}

TEST(LazyGraphBitset, BudgetExhaustionFallsBackGracefully) {
  ZoneFixture f(gen::gnp(100, 0.3, 556));
  LazyGraph lazy = f.make();
  // zone = 100 bits -> 2 words (16 bytes) per row.  Grant the bookkeeping
  // plus one word: no complete row fits, so the first build exhausts.
  const std::size_t bookkeeping =
      100 * (sizeof(std::uint64_t*) + sizeof(std::uint32_t));
  lazy.enable_bitset_rows(bookkeeping + 8);
  ASSERT_TRUE(lazy.rows_enabled());
  EXPECT_FALSE(lazy.zone_row(0).valid());
  EXPECT_FALSE(lazy.has_row(0));
  // membership still produces a usable view.
  NeighborhoodView view = lazy.membership(0);
  EXPECT_FALSE(view.has_row());
  EXPECT_GT(view.size(), 0u);
  EXPECT_EQ(lazy.stats().bitset_built, 0u);
}

TEST(LazyGraphBitset, DisabledAndOutOfZoneRowsAreInvalid) {
  ZoneFixture f(gen::gnp(40, 0.3, 557));
  {
    LazyGraph lazy = f.make();
    EXPECT_FALSE(lazy.rows_enabled());
    EXPECT_FALSE(lazy.zone_row(0).valid());
    EXPECT_EQ(lazy.stats().zone_size, 0u);
  }
  // Raise the incumbent so part of the graph falls outside the zone.
  ZoneFixture f2(gen::graph_union(gen::complete(8), gen::star(30)));
  f2.incumbent.store(5);
  LazyGraph lazy = f2.make();
  lazy.enable_bitset_rows(1 << 20);
  ASSERT_TRUE(lazy.rows_enabled());
  ASSERT_GT(lazy.zone_begin(), 0u);
  EXPECT_FALSE(lazy.zone_row(0).valid());  // leaf: below the zone
  HybridRow in_zone = lazy.zone_row(lazy.num_vertices() - 1);
  EXPECT_TRUE(in_zone.valid());
  EXPECT_EQ(in_zone.kind, RowContainer::kBitset);
}

TEST(LazyGraphBitset, ForcedRepBuildsRowsInMembership) {
  ZoneFixture f(gen::gnp(60, 0.4, 558));
  LazyGraph lazy = f.make();
  lazy.enable_bitset_rows(1 << 20);
  lazy.set_preferred_rep(NeighborhoodRep::kBitset);
  NeighborhoodView view = lazy.membership(3);
  EXPECT_TRUE(view.has_row());
  EXPECT_EQ(view.row().kind, RowContainer::kBitset);
  EXPECT_FALSE(view.is_hashed());
  // contains() agrees with the base graph inside the zone (incumbent 0:
  // nothing filtered, zone covers everything).
  for (VertexId u = 0; u < lazy.num_vertices(); ++u) {
    bool edge = f.g.has_edge(f.order.new_to_orig[3], f.order.new_to_orig[u]);
    EXPECT_EQ(view.contains(u), edge) << u;
  }
}

}  // namespace
}  // namespace lazymc
