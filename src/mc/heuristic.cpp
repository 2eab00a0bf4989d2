#include "mc/heuristic.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "intersect/intersect.hpp"
#include "support/bitset.hpp"
#include "support/parallel.hpp"

namespace lazymc::mc {

namespace {

// A seed's induced rows are built only once its live candidate set has at
// most this many vertices: 4096^2 bits is 2 MiB, and at most one seed runs
// per worker.  A larger (hub) candidate set takes scatter-counted steps
// until it shrinks below the cap.
constexpr std::size_t kMaxRowVertices = 4096;

// One greedy step over a candidate set too large for rows.  `in_cand`
// marks exactly `cand` over all of g; each candidate's degree inside the
// set is counted by walking its neighbour list.  Returns the first
// candidate (ascending) with the strictly largest count.
VertexId scatter_argmax(const Graph& g, std::span<const VertexId> cand,
                        const DynamicBitset& in_cand) {
  std::size_t best_deg = 0;
  VertexId best = kInvalidVertex;
  for (VertexId w : cand) {
    std::size_t d = 0;
    for (VertexId u : g.neighbors(w)) d += in_cand.test(u) ? 1 : 0;
    if (best == kInvalidVertex || d > best_deg) {
      best_deg = d;
      best = w;
    }
  }
  return best;
}

// Greedy growth over rows of G[cand] (`cand` ascending, at most
// kMaxRowVertices): each step takes the first live candidate with the
// strictly largest popcount of (row & live), then keeps only its
// neighbours live.  Appends the picks to `clique`.
void grow_over_rows(const Graph& g, std::span<const VertexId> cand,
                    std::vector<VertexId>& clique) {
  const std::size_t m = cand.size();
  std::vector<DynamicBitset> adj(m);
  for (std::size_t i = 0; i < m; ++i) {
    adj[i].reinit(m);
    // Merge the sorted N(cand[i]) against the sorted cand (cheaper than
    // induce_dense's hash lookups, which cannot assume sorted input).
    auto nbrs = g.neighbors(cand[i]);
    auto it = nbrs.begin();
    std::size_t j = 0;
    while (it != nbrs.end() && j < m) {
      if (*it < cand[j]) {
        ++it;
      } else if (cand[j] < *it) {
        ++j;
      } else {
        adj[i].set(j);
        ++it;
        ++j;
      }
    }
  }
  DynamicBitset live(m);
  for (std::size_t i = 0; i < m; ++i) live.set(i);
  while (live.any()) {
    std::size_t best = m;
    std::size_t best_deg = 0;
    live.for_each([&](std::size_t w) {
      std::size_t d = adj[w].count_and(live);
      if (best == m || d > best_deg) {
        best_deg = d;
        best = w;
      }
    });
    clique.push_back(cand[best]);
    live.and_with(adj[best]);
  }
}

}  // namespace

void degree_based_heuristic(const Graph& g, Incumbent& incumbent,
                            const HeuristicOptions& options) {
  const VertexId n = g.num_vertices();
  if (n == 0) return;

  // Top-K vertices by degree via partial sort of ids.
  VertexId k = std::min<VertexId>(options.top_k, n);
  std::vector<VertexId> seeds(n);
  for (VertexId v = 0; v < n; ++v) seeds[v] = v;
  std::partial_sort(seeds.begin(), seeds.begin() + k, seeds.end(),
                    [&](VertexId a, VertexId b) {
                      return g.degree(a) > g.degree(b);
                    });
  seeds.resize(k);

  parallel_for(0, seeds.size(), [&](std::size_t i) {
    std::uint64_t stop_counter = 0;
    if (options.control && options.control->should_stop(stop_counter)) return;
    VertexId v = seeds[i];
    // N = neighbors with enough degree to matter given |C*|.
    VertexId bound = incumbent.size();
    std::vector<VertexId> candidates;
    candidates.reserve(g.degree(v));
    for (VertexId u : g.neighbors(v)) {
      if (g.degree(u) >= bound) candidates.push_back(u);
    }
    std::vector<VertexId> clique{v};

    // Greedy step (Algorithm 5 lines 7-8): the candidate with the largest
    // degree inside the candidate set, ties to the lowest id; then the
    // candidate set shrinks to its neighbours.
    if (candidates.size() > kMaxRowVertices) {
      DynamicBitset in_cand(n);
      for (VertexId u : candidates) in_cand.set(u);
      std::vector<VertexId> next(candidates.size());
      while (candidates.size() > kMaxRowVertices) {
        VertexId best = scatter_argmax(g, candidates, in_cand);
        clique.push_back(best);
        for (VertexId u : candidates) in_cand.reset(u);
        std::size_t kept =
            intersect_sorted(candidates, g.neighbors(best), next.data());
        candidates.assign(next.begin(), next.begin() + kept);
        for (VertexId u : candidates) in_cand.set(u);
      }
    }
    grow_over_rows(g, candidates, clique);
    incumbent.offer(clique);
  }, 1);
}

void coreness_based_heuristic(LazyGraph& h, Incumbent& incumbent,
                              const HeuristicOptions& options) {
  const VertexId n = h.num_vertices();
  if (n == 0) return;

  // Vertices are sorted by ascending coreness, so the first vertex of each
  // coreness level is found by scanning level boundaries once.
  std::vector<VertexId> level_first;  // seed vertex per distinct level
  {
    VertexId prev = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      VertexId c = h.coreness(v);
      if (c != prev) {
        level_first.push_back(v);
        prev = c;
      }
    }
  }
  // Process high coreness levels first (they host the large cliques).
  std::reverse(level_first.begin(), level_first.end());

  const auto& order = h.order();
  parallel_for(0, level_first.size(), [&](std::size_t i) {
    std::uint64_t stop_counter = 0;
    if (options.control && options.control->should_stop(stop_counter)) return;
    VertexId v = level_first[i];
    auto right = h.right_neighborhood(v);
    std::vector<VertexId> candidates(right.begin(), right.end());
    std::vector<VertexId> clique{v};
    std::vector<VertexId> next(candidates.size());

    while (!candidates.empty()) {
      // Highest-numbered candidate has the highest coreness (Algorithm 6
      // line 7); candidate lists are sorted ascending.
      VertexId u = candidates.back();
      clique.push_back(u);
      candidates.pop_back();
      if (candidates.empty()) break;
      // N ← N ∩ N(u) via intersect-gt, θ = |C*| - |C| (Algorithm 6
      // line 8): if the result cannot keep C competitive, abandon.
      std::int64_t theta =
          static_cast<std::int64_t>(incumbent.size()) -
          static_cast<std::int64_t>(clique.size());
      NeighborhoodView u_nbrs = h.membership(u);
      int kept = options.intersect.gt(std::span<const VertexId>(candidates),
                                      u_nbrs, next.data(), theta);
      if (kept == kTooSmall) {
        candidates.clear();
        break;
      }
      candidates.assign(next.begin(), next.begin() + kept);
    }
    // Convert relabelled ids to original before publishing.
    std::vector<VertexId> orig;
    orig.reserve(clique.size());
    for (VertexId u : clique) orig.push_back(order.new_to_orig[u]);
    incumbent.offer(orig);
  }, 1);
}

}  // namespace lazymc::mc
