// Exports the synthetic benchmark suite to disk so the instances can be
// fed to external solvers or inspected:
//
//   $ ./example_export_suite out_dir [tiny|small|medium] [name...]
//
// Writes <out_dir>/<name>.edges (0-based edge list) and
// <out_dir>/<name>.clq (DIMACS) for each instance, plus a MANIFEST.tsv
// with basic statistics.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/io.hpp"
#include "graph/suite.hpp"
#include "kcore/kcore.hpp"

int main(int argc, char** argv) {
  using namespace lazymc;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s out_dir [tiny|small|medium] [name...]\n", argv[0]);
    return 2;
  }
  std::filesystem::path dir = argv[1];
  std::filesystem::create_directories(dir);

  suite::Scale scale = suite::Scale::kSmall;
  int name_start = 2;
  if (argc > 2) {
    if (const auto named = from_name(suite::kScaleNames, argv[2])) {
      scale = *named;
      name_start = 3;
    }
  }
  std::vector<std::string> names;
  for (int i = name_start; i < argc; ++i) names.emplace_back(argv[i]);
  if (names.empty()) names = suite::instance_names();

  std::ofstream manifest(dir / "MANIFEST.tsv");
  manifest << "name\tvertices\tedges\tmax_degree\tdegeneracy\tregime\n";
  for (const std::string& name : names) {
    suite::Instance inst = suite::make_instance(name, scale);
    const Graph& g = inst.graph;
    io::write_edge_list_file(g, (dir / (name + ".edges")).string());
    io::write_dimacs_file(g, (dir / (name + ".clq")).string());
    auto core = kcore::coreness(g);
    manifest << name << '\t' << g.num_vertices() << '\t' << g.num_edges()
             << '\t' << g.max_degree() << '\t' << core.degeneracy << '\t'
             << inst.regime << '\n';
    std::printf("wrote %s (%u vertices, %llu edges)\n", name.c_str(),
                g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges()));
  }
  std::printf("manifest: %s\n", (dir / "MANIFEST.tsv").c_str());
  return 0;
}
