// Resolves the driver's --graph spec into a Graph.
//
// Two kinds of spec:
//  * a file path — a `.lmg` binary store (mmap'ed zero-copy), DIMACS, or
//    edge list, auto-detected by content;
//  * "gen:NAME[:SCALE]" — a named instance of the synthetic suite
//    (graph/suite.hpp), SCALE in {tiny, small, medium}, default small.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "store/binary_graph.hpp"

namespace lazymc::cli {

struct LoadedGraph {
  Graph graph;
  std::string description;  // e.g. "file:foo.clq" or "gen:dblp:small"
  double load_seconds = 0;
  /// How the graph materialized: "parse" (text formats), "mmap" (binary
  /// store), or "gen" (synthetic suite).  Reported so benchmarks and the
  /// daemon status can tell the load paths apart.
  std::string load_path = "parse";
  /// Set on the mmap path: the store view backing `graph`, carrying the
  /// precomputed order/coreness and prebuilt rows for mc::PrebuiltGraph.
  std::shared_ptr<const store::BinaryGraphView> store;
};

/// Loads the graph named by `spec`.  Every failure is a classified
/// Error: kInput for unknown generator names and unreadable or
/// ill-formed files (with the OS errno when an open or read failed),
/// kResource when memory ran out.
LoadedGraph load_graph(const std::string& spec);

/// Reads a batch manifest: one graph spec per line, with blank lines and
/// '#' comments (full-line or trailing) skipped and surrounding
/// whitespace trimmed.  Throws std::runtime_error when the file cannot
/// be opened.
std::vector<std::string> read_manifest(const std::string& path);

}  // namespace lazymc::cli
