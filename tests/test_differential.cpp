// Differential route gate: LazyMC's independent solve routes must each
// return the reference solver's omega.  The routes are forced through
// the algorithmic-choice knobs (density threshold φ and the k-VC node
// budget, plus the intersection exits): all-VC, all-VC with a budget
// small enough to force fallbacks to the MC solver, all-MC, the defaults,
// and the defaults under the Fig. 5 "no early exits" ablation (every
// intersection exact) — at 1 and 4 threads, over graph families that
// stress the k-VC probes (dense gnp, planted cliques, complements of
// sparse graphs, overlapping dense blocks with near-tied clique sizes).
// Each solve also runs from a cold incumbent (no degree-heuristic seeds),
// so the k-VC probes must find cliques and not only refute them.
//
// The default run takes a few seconds.  LAZYMC_SOAK=N runs N times as
// many seeds per family, for a longer soak.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "baselines/reference.hpp"
#include "graph/generators.hpp"
#include "mc/lazymc.hpp"
#include "support/parallel.hpp"

namespace lazymc {
namespace {

struct Route {
  const char* name;
  double density_threshold;
  std::uint64_t vc_node_budget_per_vertex;
  bool early_exit_intersections = true;
  bool second_exit = true;
};

const mc::LazyMCConfig kDefaults;

const Route kRoutes[] = {
    {"all-vc", 0.0, 0},
    {"vc-fallback", 0.0, 1},
    {"all-mc", 1.1, kDefaults.vc_node_budget_per_vertex},
    {"default", kDefaults.density_threshold,
     kDefaults.vc_node_budget_per_vertex},
    {"no-early-exits", kDefaults.density_threshold,
     kDefaults.vc_node_budget_per_vertex, false, false},
};

struct Family {
  const char* name;
  Graph (*make)(std::uint64_t seed);
};

// Sized so the heuristics often miss the optimum and some neighborhoods
// outgrow a budget of one k-VC node per vertex.
const Family kFamilies[] = {
    {"dense-gnp", [](std::uint64_t s) { return gen::gnp(80, 0.9, s); }},
    {"planted-clique",
     [](std::uint64_t s) {
       // Planted at about the natural clique number: a near-tie.
       return gen::plant_clique(gen::gnp(100, 0.6, s), 13, s + 1000);
     }},
    {"complement-of-sparse",
     [](std::uint64_t s) { return gen::complement(gen::gnp(80, 0.06, s)); }},
    {"near-tied-blocks",
     [](std::uint64_t s) { return gen::gene_blocks(120, 8, 30, 0.6, s); }},
};

std::uint64_t soak_factor() {
  const char* env = std::getenv("LAZYMC_SOAK");
  if (env == nullptr) return 1;
  const long long n = std::atoll(env);
  return n > 1 ? static_cast<std::uint64_t>(n) : 1;
}

class DifferentialTest : public testing::Test {
 protected:
  void TearDown() override { set_num_threads(0); }
};

TEST_F(DifferentialTest, EveryRouteMatchesReference) {
  const std::uint64_t seeds = 4 * soak_factor();
  // Route work summed over every family and seed: each forced route must
  // really have taken its path somewhere, or the gate proves nothing.
  struct RouteWork {
    std::uint64_t solved_vc = 0, vc_fallbacks = 0, solved_mc = 0;
  };
  RouteWork work[std::size(kRoutes)];

  for (const Family& family : kFamilies) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const Graph g = family.make(seed);
      const std::vector<VertexId> ref = baselines::max_clique_reference(g);
      ASSERT_TRUE(is_clique(g, ref));

      for (std::size_t threads : {1, 4}) {
        set_num_threads(threads);
        for (std::size_t i = 0; i < std::size(kRoutes); ++i) {
          const Route& route = kRoutes[i];
          for (VertexId top_k : {kDefaults.heuristic_top_k, VertexId{0}}) {
            mc::LazyMCConfig cfg;
            cfg.density_threshold = route.density_threshold;
            cfg.vc_node_budget_per_vertex = route.vc_node_budget_per_vertex;
            cfg.early_exit_intersections = route.early_exit_intersections;
            cfg.second_exit = route.second_exit;
            cfg.heuristic_top_k = top_k;
            const mc::LazyMCResult r = mc::lazy_mc(g, cfg);
            const std::string where =
                std::string(family.name) + " seed " + std::to_string(seed) +
                " threads " + std::to_string(threads) + " route " +
                route.name + " top_k " + std::to_string(top_k);
            EXPECT_FALSE(r.timed_out) << where;
            EXPECT_EQ(r.omega, ref.size()) << where;
            EXPECT_EQ(r.clique.size(), r.omega) << where;
            EXPECT_TRUE(is_clique(g, r.clique)) << where;
            work[i].solved_vc += r.search.solved_vc;
            work[i].vc_fallbacks += r.search.vc_fallbacks;
            work[i].solved_mc += r.search.solved_mc;
          }
        }
      }
    }
  }
  EXPECT_GT(work[0].solved_vc, 0u) << "all-vc never reached k-VC";
  EXPECT_GT(work[1].vc_fallbacks, 0u) << "vc-fallback never fell back to MC";
  EXPECT_EQ(work[2].solved_vc + work[2].vc_fallbacks, 0u)
      << "all-mc reached k-VC";
  EXPECT_GT(work[2].solved_mc, 0u) << "all-mc never reached the MC solver";
}

}  // namespace
}  // namespace lazymc
