// Tests for maximum clique via k-VC on the complement (algorithmic choice).
#include <gtest/gtest.h>

#include <atomic>
#include <utility>

#include "baselines/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "vc/mc_via_vc.hpp"

namespace lazymc {
namespace {

DenseSubgraph induce_all(const Graph& g) {
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  return induce_dense(g, all);
}

bool local_clique(const DenseSubgraph& s, const std::vector<VertexId>& c) {
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (std::size_t j = i + 1; j < c.size(); ++j) {
      if (!s.adj[c[i]].test(c[j])) return false;
    }
  }
  return true;
}

TEST(McViaVc, CompleteGraph) {
  // The first probe asks for a clique of size 1; its cover is empty, so
  // the jump goes straight past n and no second probe runs.
  DenseSubgraph s = induce_all(gen::complete(8));
  auto r = vc::max_clique_via_vc(s, 0);
  EXPECT_EQ(r.clique.size(), 8u);
  EXPECT_EQ(r.nodes, vc::solve_kvc(s.complement(), 7).nodes);
}

TEST(McViaVc, EdgelessGraph) {
  GraphBuilder b(6);
  DenseSubgraph s = induce_all(b.build());
  auto r = vc::max_clique_via_vc(s, 0);
  EXPECT_EQ(r.clique.size(), 1u);
}

TEST(McViaVc, MatchesNaiveOnDenseRandomGraphs) {
  // Dense graphs are the regime this path is chosen for.  Below omega the
  // answer is a maximum clique; at or above it, nothing.  At p = 0.75 some
  // feasible probes return covers larger than the minimum, so the search
  // must keep probing past the first clique it finds.
  for (auto [n, p] : {std::pair<VertexId, double>{16, 0.7}, {18, 0.75}}) {
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
      Graph g = gen::gnp(n, p, seed);
      const std::size_t omega = baselines::max_clique_naive(g).size();
      DenseSubgraph s = induce_all(g);
      for (std::size_t lb = 0; lb <= omega + 1; ++lb) {
        auto r = vc::max_clique_via_vc(s, static_cast<VertexId>(lb));
        EXPECT_EQ(r.clique.size(), lb < omega ? omega : 0u)
            << "p " << p << " seed " << seed << " lower_bound " << lb;
        EXPECT_TRUE(local_clique(s, r.clique)) << "seed " << seed;
        EXPECT_FALSE(r.budget_exhausted);
      }
    }
  }
}

TEST(McViaVc, RespectsLowerBound) {
  DenseSubgraph s = induce_all(gen::cycle(8));  // omega = 2
  auto r = vc::max_clique_via_vc(s, 2);
  EXPECT_TRUE(r.clique.empty());  // nothing > 2 exists
  auto r1 = vc::max_clique_via_vc(s, 1);
  EXPECT_EQ(r1.clique.size(), 2u);
}

TEST(McViaVc, LowerBoundEqualToSizeReturnsEmpty) {
  DenseSubgraph s = induce_all(gen::complete(5));
  auto r = vc::max_clique_via_vc(s, 5);
  EXPECT_TRUE(r.clique.empty());
  auto r4 = vc::max_clique_via_vc(s, 4);
  EXPECT_EQ(r4.clique.size(), 5u);
}

TEST(McViaVc, AgreesWithBBOnDenseSuiteLikeBlocks) {
  Graph g = gen::gene_blocks(60, 6, 20, 0.85, 7);
  auto ref = baselines::max_clique_reference(g);
  DenseSubgraph s = induce_all(g);
  auto r = vc::max_clique_via_vc(s, 0);
  EXPECT_EQ(r.clique.size(), ref.size());
  EXPECT_TRUE(local_clique(s, r.clique));
}

TEST(McViaVc, CancelledControlStops) {
  Graph g = gen::gnp(60, 0.8, 9);
  DenseSubgraph s = induce_all(g);
  SolveControl control;
  control.cancel();
  auto r = vc::max_clique_via_vc(s, 0, &control);
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(r.clique.empty());
}

TEST(McViaVc, NodesAccumulateAcrossProbes) {
  Graph g = gen::gnp(20, 0.6, 11);
  DenseSubgraph s = induce_all(g);
  auto r = vc::max_clique_via_vc(s, 0);
  EXPECT_GT(r.nodes, 0u);
}

// ---- probe order: ascending from the bound, jumping on each cover ------

TEST(McViaVc, AbsenceCostsExactlyOneProbe) {
  // With the bound at omega the first probe (clique omega + 1, cover
  // n - omega - 1) is infeasible and ends the search.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Graph g = gen::gnp(40, 0.7, seed);
    const std::size_t omega = baselines::max_clique_reference(g).size();
    DenseSubgraph s = induce_all(g);
    const std::size_t n = s.size();
    auto r = vc::max_clique_via_vc(s, static_cast<VertexId>(omega));
    EXPECT_TRUE(r.clique.empty());
    auto probe = vc::solve_kvc(s.complement(),
                               static_cast<std::int64_t>(n - omega - 1));
    EXPECT_FALSE(probe.feasible);
    EXPECT_EQ(r.nodes, probe.nodes) << "seed " << seed;
  }
}

TEST(McViaVc, LiveBoundPastSizeSkipsEveryProbe) {
  DenseSubgraph s = induce_all(gen::gnp(20, 0.7, 5));
  const std::atomic<VertexId> live{static_cast<VertexId>(s.size() + 3)};
  auto r = vc::max_clique_via_vc(s, 0, nullptr, 0, nullptr, &live, 1);
  EXPECT_TRUE(r.clique.empty());
  EXPECT_EQ(r.nodes, 0u);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_FALSE(r.timed_out);
}

TEST(McViaVc, NodeBudgetOfOneIsExhausted) {
  DenseSubgraph s = induce_all(gen::gnp(30, 0.7, 6));
  auto r = vc::max_clique_via_vc(s, 0, nullptr, /*node_budget=*/1);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_TRUE(r.clique.empty());
  EXPECT_FALSE(r.timed_out);
}

}  // namespace
}  // namespace lazymc
