#include "cli/graph_source.hpp"

#include <cerrno>
#include <fstream>
#include <new>
#include <optional>
#include <stdexcept>

#include "graph/io.hpp"
#include "graph/suite.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace lazymc::cli {
namespace {

suite::Scale parse_scale(const std::string& name) {
  const std::optional<suite::Scale> scale = from_name(suite::kScaleNames, name);
  if (!scale) {
    throw std::runtime_error("unknown suite scale '" + name + "' (expected " +
                             name_list(suite::kScaleNames) + ")");
  }
  return *scale;
}

LoadedGraph load_generated(const std::string& spec) {
  // spec is "gen:NAME[:SCALE]".
  std::string rest = spec.substr(4);
  suite::Scale scale = suite::Scale::kSmall;
  if (auto colon = rest.find(':'); colon != std::string::npos) {
    scale = parse_scale(rest.substr(colon + 1));
    rest.resize(colon);
  }
  if (rest.empty()) {
    std::string names;
    for (const auto& name : suite::instance_names()) {
      if (!names.empty()) names += ", ";
      names += name;
    }
    throw std::runtime_error("empty generator name; known instances: " +
                             names);
  }
  WallTimer timer;
  suite::Instance instance = suite::make_instance(rest, scale);
  LoadedGraph loaded;
  loaded.graph = std::move(instance.graph);
  loaded.description =
      "gen:" + rest + ":" + name_of(suite::kScaleNames, scale);
  loaded.load_seconds = timer.elapsed();
  loaded.load_path = "gen";
  return loaded;
}

LoadedGraph load_file(const std::string& spec) {
  WallTimer timer;
  LoadedGraph loaded;
  if (store::is_lmg_file(spec)) {
    // Keep the view: it carries the stored order/coreness/rows the solve
    // consumes via mc::PrebuiltGraph, on top of backing the CSR spans.
    auto view = store::BinaryGraphView::open(spec);
    loaded.graph = view->graph();
    loaded.store = std::move(view);
    loaded.load_path = "mmap";
  } else {
    loaded.graph = io::read_graph_file(spec);
  }
  loaded.description = "file:" + spec;
  loaded.load_seconds = timer.elapsed();
  return loaded;
}

}  // namespace

LoadedGraph load_graph(const std::string& spec) {
  try {
    return spec.rfind("gen:", 0) == 0 ? load_generated(spec)
                                      : load_file(spec);
  } catch (const Error&) {
    throw;
  } catch (const std::bad_alloc&) {
    throw Error(ErrorKind::kResource, "out of memory loading '" + spec + "'");
  } catch (const std::exception& e) {
    // Unreadable or ill-formed input; errno is the OS detail when the
    // failure was an open/read (0 otherwise).
    throw Error(ErrorKind::kInput, e.what(), errno);
  }
}

std::vector<std::string> read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open manifest file '" + path + "'");
  }
  std::vector<std::string> specs;
  std::string line;
  while (std::getline(in, line)) {
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    specs.push_back(line.substr(first, last - first + 1));
  }
  return specs;
}

}  // namespace lazymc::cli
