// Tests for the degree-based and coreness-based heuristic searches.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/reference.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "intersect/intersect.hpp"
#include "kcore/kcore.hpp"
#include "kcore/order.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/heuristic.hpp"
#include "support/parallel.hpp"

namespace lazymc {
namespace {

TEST(DegreeHeuristic, FindsValidClique) {
  Graph g = gen::plant_clique(gen::gnp(100, 0.05, 3), 10, 4);
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent);
  auto clique = incumbent.snapshot();
  EXPECT_GE(clique.size(), 2u);
  EXPECT_TRUE(is_clique(g, clique));
}

TEST(DegreeHeuristic, ExactOnCompleteGraph) {
  Graph g = gen::complete(12);
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent);
  EXPECT_EQ(incumbent.size(), 12u);
}

TEST(DegreeHeuristic, EmptyGraphNoCrash) {
  Graph g;
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent);
  EXPECT_EQ(incumbent.size(), 0u);
}

TEST(DegreeHeuristic, SingleVertex) {
  GraphBuilder b(1);
  Graph g = b.build();
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent);
  EXPECT_EQ(incumbent.size(), 1u);
}

TEST(DegreeHeuristic, NeverExceedsOmega) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Graph g = gen::gnp(40, 0.3, seed);
    auto ref = baselines::max_clique_reference(g);
    Incumbent incumbent;
    mc::degree_based_heuristic(g, incumbent);
    EXPECT_LE(incumbent.size(), ref.size()) << "seed " << seed;
    EXPECT_TRUE(is_clique(g, incumbent.snapshot()));
  }
}

TEST(DegreeHeuristic, TopKZeroSeedsIsNoop) {
  Graph g = gen::complete(5);
  Incumbent incumbent;
  mc::HeuristicOptions opt;
  opt.top_k = 0;
  mc::degree_based_heuristic(g, incumbent, opt);
  EXPECT_EQ(incumbent.size(), 0u);
}

TEST(DegreeHeuristic, FindsPlantedCliqueOnHubSeed) {
  // The planted clique members are the highest-degree vertices in a sparse
  // background, so the heuristic should recover it exactly.
  Graph bg = gen::gnp(200, 0.01, 7);
  std::vector<VertexId> members;
  Graph g = gen::plant_clique(bg, 14, 8, &members);
  Incumbent incumbent;
  mc::HeuristicOptions opt;
  opt.top_k = 32;
  mc::degree_based_heuristic(g, incumbent, opt);
  EXPECT_GE(incumbent.size(), 12u);  // near-exact greedy recovery
}

// The sorted-array greedy that the bitset-row heuristic replaced: per step,
// an early-exit |C ∩ N(w)| for every candidate in ascending order, keeping
// the first strictly largest; then C = C ∩ N(best).  Seeds run in order
// against one incumbent, as degree_based_heuristic does at one thread.
std::vector<VertexId> sorted_greedy_reference(const Graph& g, VertexId top_k) {
  const VertexId n = g.num_vertices();
  VertexId k = std::min(top_k, n);
  std::vector<VertexId> seeds(n);
  for (VertexId v = 0; v < n; ++v) seeds[v] = v;
  std::partial_sort(seeds.begin(), seeds.begin() + k, seeds.end(),
                    [&](VertexId a, VertexId b) {
                      return g.degree(a) > g.degree(b);
                    });
  seeds.resize(k);
  Incumbent incumbent;
  for (VertexId v : seeds) {
    VertexId bound = incumbent.size();
    std::vector<VertexId> candidates;
    for (VertexId u : g.neighbors(v)) {
      if (g.degree(u) >= bound) candidates.push_back(u);
    }
    std::vector<VertexId> clique{v};
    std::vector<VertexId> next(candidates.size());
    while (!candidates.empty()) {
      std::int64_t best_deg = -1;
      VertexId best = kInvalidVertex;
      std::span<const VertexId> cand_span(candidates);
      for (VertexId w : candidates) {
        int d = intersect_size_gt_val(cand_span, SortedLookup(g.neighbors(w)),
                                      best_deg);
        if (d != kTooSmall && d > best_deg) {
          best_deg = d;
          best = w;
        }
      }
      clique.push_back(best);
      std::size_t kept = intersect_hash(
          cand_span, SortedLookup(g.neighbors(best)), next.data());
      candidates.assign(next.begin(), next.begin() + kept);
    }
    incumbent.offer(clique);
  }
  return incumbent.snapshot();
}

class DegreeHeuristicOneThread : public testing::Test {
 protected:
  void SetUp() override { set_num_threads(1); }
  void TearDown() override { set_num_threads(0); }
};

TEST_F(DegreeHeuristicOneThread, MatchesSortedGreedyReference) {
  struct Case {
    const char* name;
    Graph g;
  };
  std::vector<Case> cases;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    cases.push_back({"dense-gnp", gen::gnp(150, 0.8, s)});
    cases.push_back({"gene-blocks", gen::gene_blocks(300, 10, 60, 0.7, s)});
    cases.push_back({"ba-planted", gen::plant_clique(
                                       gen::barabasi_albert(400, 6, s), 18,
                                       s + 100)});
    cases.push_back(
        {"complement-of-sparse", gen::complement(gen::gnp(120, 0.05, s))});
  }
  for (const Case& c : cases) {
    for (VertexId top_k : {VertexId{1}, VertexId{16}}) {
      mc::HeuristicOptions opt;
      opt.top_k = top_k;
      Incumbent incumbent;
      mc::degree_based_heuristic(c.g, incumbent, opt);
      EXPECT_EQ(incumbent.snapshot(), sorted_greedy_reference(c.g, top_k))
          << c.name << " top_k " << top_k;
    }
  }
}

TEST_F(DegreeHeuristicOneThread, HubAboveRowCapScattersThenSwitchesToRows) {
  // Hub 0 sees a co-hub 1 and 6000 leaves; the co-hub sees the first 5000
  // leaves, and a 20-clique sits among those.  The hub's candidate set
  // (6001) and its first shrink (5000) both exceed the 4096-vertex row
  // cap, so two scatter steps pick the co-hub, then the lowest clique
  // leaf; the 19 remaining clique leaves are grown over rows.
  constexpr VertexId kLeaves = 6000;
  constexpr VertexId kCoHubLeaves = 5000;
  constexpr VertexId kPlanted = 20;
  GraphBuilder b(kLeaves + 2);
  b.add_edge(0, 1);
  for (VertexId leaf = 2; leaf < kLeaves + 2; ++leaf) {
    b.add_edge(0, leaf);
    if (leaf < kCoHubLeaves + 2) b.add_edge(1, leaf);
  }
  std::vector<VertexId> planted;
  for (VertexId i = 0; i < kPlanted; ++i) planted.push_back(2 + 7 + 241 * i);
  for (VertexId i = 0; i < kPlanted; ++i) {
    for (VertexId j = i + 1; j < kPlanted; ++j) {
      b.add_edge(planted[i], planted[j]);
    }
  }
  Graph g = b.build();
  mc::HeuristicOptions opt;
  opt.top_k = 1;
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent, opt);
  std::vector<VertexId> clique = incumbent.snapshot();
  EXPECT_EQ(clique.size(), kPlanted + 2);
  EXPECT_TRUE(is_clique(g, clique));
  EXPECT_EQ(clique, sorted_greedy_reference(g, 1));
}

struct LazyFixture {
  Graph g;
  kcore::CoreDecomposition core;
  kcore::VertexOrder order;
  Incumbent incumbent;
  std::unique_ptr<LazyGraph> lazy;

  explicit LazyFixture(Graph graph) : g(std::move(graph)) {
    core = kcore::coreness(g);
    order = kcore::order_by_coreness_degree(g, core.coreness);
    lazy = std::make_unique<LazyGraph>(g, order, core.coreness,
                                       &incumbent.size_atomic());
  }
};

TEST(CorenessHeuristic, FindsValidClique) {
  LazyFixture f(gen::plant_clique(gen::gnp(120, 0.04, 9), 11, 10));
  mc::coreness_based_heuristic(*f.lazy, f.incumbent);
  auto clique = f.incumbent.snapshot();
  EXPECT_GE(clique.size(), 3u);
  EXPECT_TRUE(is_clique(f.g, clique));
}

TEST(CorenessHeuristic, ExactOnCompleteGraph) {
  LazyFixture f(gen::complete(9));
  mc::coreness_based_heuristic(*f.lazy, f.incumbent);
  EXPECT_EQ(f.incumbent.size(), 9u);
}

TEST(CorenessHeuristic, RecoversZeroGapPlantedClique) {
  // Planted clique larger than the background degeneracy: coreness-based
  // search seeds at the top level, which is inside the clique, and walks
  // it fully (the paper's zero-gap graphs are solved this way).
  Graph bg = gen::barabasi_albert(300, 4, 11);
  Graph g = gen::plant_clique(bg, 16, 12);
  LazyFixture f(std::move(g));
  mc::coreness_based_heuristic(*f.lazy, f.incumbent);
  EXPECT_EQ(f.incumbent.size(), 16u);
  EXPECT_TRUE(is_clique(f.g, f.incumbent.snapshot()));
}

TEST(CorenessHeuristic, NeverExceedsOmega) {
  for (std::uint64_t seed = 20; seed <= 28; ++seed) {
    Graph g = gen::gnp(50, 0.25, seed);
    auto ref = baselines::max_clique_reference(g);
    LazyFixture f(std::move(g));
    mc::coreness_based_heuristic(*f.lazy, f.incumbent);
    EXPECT_LE(f.incumbent.size(), ref.size()) << "seed " << seed;
    EXPECT_TRUE(is_clique(f.g, f.incumbent.snapshot()));
  }
}

TEST(CorenessHeuristic, EmptyGraphNoCrash) {
  LazyFixture f(Graph{});
  mc::coreness_based_heuristic(*f.lazy, f.incumbent);
  EXPECT_EQ(f.incumbent.size(), 0u);
}

TEST(Heuristics, BothRespectCancelledControl) {
  Graph g = gen::gnp(100, 0.2, 30);
  SolveControl control;
  control.cancel();
  mc::HeuristicOptions opt;
  opt.control = &control;
  Incumbent incumbent;
  mc::degree_based_heuristic(g, incumbent, opt);
  EXPECT_EQ(incumbent.size(), 0u);
  LazyFixture f(std::move(g));
  mc::coreness_based_heuristic(*f.lazy, f.incumbent, opt);
  EXPECT_EQ(f.incumbent.size(), 0u);
}

TEST(Incumbent, OfferKeepsLargest) {
  Incumbent inc;
  std::vector<VertexId> a{1, 2};
  std::vector<VertexId> b{3, 4, 5};
  std::vector<VertexId> c{6};
  EXPECT_TRUE(inc.offer(a));
  EXPECT_TRUE(inc.offer(b));
  EXPECT_FALSE(inc.offer(c));
  EXPECT_FALSE(inc.offer(a));
  EXPECT_EQ(inc.size(), 3u);
  EXPECT_EQ(inc.snapshot(), b);
}

TEST(Incumbent, ConcurrentOffersConverge) {
  Incumbent inc;
  parallel_for(0, 1000, [&](std::size_t i) {
    std::vector<VertexId> clique(i % 50 + 1);
    for (std::size_t j = 0; j < clique.size(); ++j) {
      clique[j] = static_cast<VertexId>(j);
    }
    inc.offer(clique);
  });
  EXPECT_EQ(inc.size(), 50u);
  EXPECT_EQ(inc.snapshot().size(), 50u);
}

}  // namespace
}  // namespace lazymc
