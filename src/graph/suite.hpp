// The named synthetic graph suite.
//
// The paper evaluates on 28 real graphs (Table I).  Those corpora are not
// redistributable, so each instance here is a laptop-scale synthetic
// analog engineered to land in the same structural regime as its namesake:
//
//  * zero clique-core gap (uk-union, dimacs, hudong, dblp, it, hollywood,
//    uk): a planted clique dominates the degeneracy, so heuristic search
//    can certify optimality and the must-subgraph is empty;
//  * large gap, sparse (sinaweibo, friendster, soflow, talk, flickr,
//    yahoo): power-law or bipartite backgrounds whose coreness far
//    exceeds omega;
//  * road networks (USAroad, CAroad): triangulated grids, tiny degeneracy;
//  * dense gene networks (WormNet, HS-CX, mouse, human-1, human-2):
//    overlapping dense blocks, very high density, the regime where
//    k-vertex-cover on the complement wins (Section IV-E).
//
// Instances are deterministic (fixed seeds) so experiments reproduce.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "support/names.hpp"

namespace lazymc::suite {

enum class Scale {
  kTiny,    // unit/property tests: <= ~600 vertices
  kSmall,   // integration tests:   ~2k vertices
  kMedium,  // benchmark harness:   up to ~40k vertices
};

/// The gen:NAME:SCALE / --scale spellings.
inline constexpr Named<Scale> kScaleNames[] = {
    {"tiny", Scale::kTiny},
    {"small", Scale::kSmall},
    {"medium", Scale::kMedium},
};

struct Instance {
  std::string name;          // paper graph this stands in for
  std::string regime;        // short description of the structural regime
  bool zero_gap_expected;    // paper reports clique-core gap == 0
  Graph graph;
};

/// All instance names, in Table I order.
std::vector<std::string> instance_names();

/// Builds one named instance at the given scale.  Throws on unknown name.
Instance make_instance(const std::string& name, Scale scale);

/// Builds the full suite (28 instances) at the given scale.
std::vector<Instance> make_suite(Scale scale);

}  // namespace lazymc::suite
