// Heuristic (greedy, inexact) clique searches that prime the incumbent
// (paper Section IV-C, Algorithms 5 and 6).
//
// Degree-based search runs on the *original* graph before any
// preprocessing: it seeds from the top-K highest-degree vertices and
// greedily adds the candidate with the highest degree inside the shrinking
// candidate set (ties to the lowest id).  Each seed's neighbourhood is
// induced once into local bitset rows, so a step is one popcount of
// (row & live) per live candidate.  Rows are built only once the live set
// has at most 4096 vertices (2 MiB per seed); a larger hub neighbourhood
// counts its steps exactly with a scatter pass until it shrinks below
// that.  The intersection policy, and so the Fig. 5 early-exit toggles,
// does not reach this phase.  A good incumbent here shrinks the k-core
// computation and the must subgraph.
//
// Coreness-based search runs on the lazy relabelled graph: one seed per
// degeneracy level, greedily taking the highest-numbered (= highest
// coreness) candidate, with intersect-gt keyed to |C*| - |C| so hopeless
// seeds abandon early.
#pragma once

#include "graph/graph.hpp"
#include "lazygraph/lazy_graph.hpp"
#include "mc/incumbent.hpp"
#include "mc/intersect_policy.hpp"
#include "support/control.hpp"

namespace lazymc::mc {

struct HeuristicOptions {
  /// Number of top-degree seeds for the degree-based search.
  VertexId top_k = 16;
  /// Intersection policy of the coreness-based search.
  IntersectPolicy intersect;
  const SolveControl* control = nullptr;
};

/// Algorithm 5.  Offers every grown clique to `incumbent` (original ids).
void degree_based_heuristic(const Graph& g, Incumbent& incumbent,
                            const HeuristicOptions& options = {});

/// Algorithm 6.  Seeds one greedy growth per coreness level of `h`;
/// offers results to `incumbent` in original ids.
void coreness_based_heuristic(LazyGraph& h, Incumbent& incumbent,
                              const HeuristicOptions& options = {});

}  // namespace lazymc::mc
