// Strict numeric flag values, shared by every front end (lazymc, lazymcd,
// lazymc-ctl, lazymc-convert).  The whole value must parse; anything else
// throws Error(kInput) naming `flag`, which every binary maps to exit
// code 3.
#pragma once

#include <cstddef>
#include <string>

#include "graph/graph.hpp"

namespace lazymc::cli {

/// A non-negative integer up to INT_MAX (so narrowing it to any
/// unsigned config field stays exact).
std::size_t parse_count(const std::string& flag, const std::string& value);

/// A positive, finite number of seconds.
double parse_seconds(const std::string& flag, const std::string& value);

/// A non-negative integer that fits in a VertexId.
VertexId parse_vertex_id(const std::string& flag, const std::string& value);

}  // namespace lazymc::cli
