#include "cli/report.hpp"

#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "cli/options.hpp"
#include "support/faultinject.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace lazymc::cli {

namespace {

/// Visits every schema field of a solve (support/stats_schema.hpp).
template <class F>
void for_each_field(const mc::LazyMCResult& lz, F&& fn) {
  lz.phases.for_each(fn);
  lz.lazy_graph.for_each(fn);
  lz.search.for_each(fn);
}

void write_stats_text(const mc::LazyMCResult& lz, std::ostream& out) {
  bool shown = true;
  const auto line = [&](stats::Line id, const char* prefix,
                        const char* suffix, const char* unit,
                        stats::Gate gate) {
    std::ostringstream fields;
    fields.copyfmt(out);
    std::uint64_t counts = 0;  // wraps exactly like a hand-written sum
    double seconds = 0;
    for_each_field(lz, [&](const stats::Field& f, const auto& value) {
      using T = std::decay_t<decltype(value)>;
      if (f.line != id) return;
      fields << ' ' << f.label << '=';
      if constexpr (std::is_same_v<T, std::vector<IncumbentImprovement>>) {
        fields << value.size();
        if (!value.empty()) {
          fields << " (last at " << value.back().seconds << unit << ")";
        }
      } else if constexpr (std::is_same_v<T, double>) {
        fields << value << unit;
        seconds += value;
      } else {
        fields << value;
        if constexpr (std::is_same_v<T, std::uint64_t>) counts += value;
      }
    });
    if (gate == stats::Gate::kAlways) shown = true;
    if (gate == stats::Gate::kIfAny) shown = counts > 0 || seconds > 0;
    if (shown) out << prefix << fields.str() << suffix;
  };
#define LAZYMC_TEXT_LINE(id, prefix, suffix, unit, gate) \
  line(stats::Line::id, prefix, suffix, unit, stats::Gate::gate);
  LAZYMC_TEXT_LINES(LAZYMC_TEXT_LINE)
#undef LAZYMC_TEXT_LINE
}

void write_stats_json(const mc::LazyMCResult& lz, JsonWriter& w) {
  int depth = 0;  // open groups: 1 top-level, 2 nested
  const auto group = [&](stats::Group id, const char* key, bool nested) {
    for (; depth > (nested ? 1 : 0); --depth) w.close();
    w.open(key);
    ++depth;
    for_each_field(lz, [&](const stats::Field& f, const auto& value) {
      using T = std::decay_t<decltype(value)>;
      if (f.group != id) return;
      if constexpr (std::is_same_v<T, std::vector<IncumbentImprovement>>) {
        w.open_array(f.key);
        for (const auto& imp : value) {
          w.open();
          w.field("size", imp.size);
          w.field("seconds", imp.seconds);
          w.close();
        }
        w.close_array();
      } else {
        w.field(f.key, value);
      }
    });
  };
#define LAZYMC_JSON_GROUP(id, key, nested) group(stats::Group::id, key, nested);
  LAZYMC_JSON_GROUPS(LAZYMC_JSON_GROUP)
#undef LAZYMC_JSON_GROUP
  for (; depth > 0; --depth) w.close();
}

}  // namespace

void render_text(const RunReport& r, std::ostream& out) {
  out << "graph:    " << r.graph << "  (" << r.num_vertices << " vertices, "
      << r.num_edges << " edges; loaded in " << std::fixed
      << std::setprecision(3) << r.load_seconds << "s via " << r.load_path
      << ")\n";
  out << "solver:   " << r.solver << "  (" << r.threads << " thread"
      << (r.threads == 1 ? "" : "s") << ")\n";
  if (r.has_mce) {
    out << "maximal cliques: " << r.mce_count << "\n";
    out << "largest maximal clique (omega): " << r.omega << "\n";
  } else {
    out << "omega:    " << r.omega << "\n";
    out << "clique:  ";
    for (VertexId v : r.clique) out << ' ' << v;
    out << "\n";
    out << "verification: " << r.verification << "\n";
  }
  if (r.timed_out) out << "TIMED OUT (result is a lower bound)\n";
  if (r.interrupted) out << "INTERRUPTED (result is best-so-far)\n";
  out << "time:     " << std::setprecision(3) << r.solve_seconds << "s\n";
  if (!r.fault_sites.empty()) {
    out << "faults:  ";
    for (const auto& site : r.fault_sites) {
      out << ' ' << site.name << "=" << site.fires << "/" << site.hits;
      if (site.armed) out << "*";
    }
    out << "  (fires/hits, * = armed)\n";
  }
  if (!r.has_lazymc) return;

  const auto& lz = r.lazymc;
  // The gap d + 1 - omega only makes sense when the k-core phase ran
  // (the heuristic can certify optimality first, leaving degeneracy 0).
  const std::int64_t gap = static_cast<std::int64_t>(lz.degeneracy) + 1 -
                           static_cast<std::int64_t>(lz.omega);
  out << "\nheuristics: degree omega_d=" << lz.heuristic_degree_omega
      << ", coreness omega_h=" << lz.heuristic_coreness_omega
      << "; degeneracy d=" << lz.degeneracy;
  if (gap >= 0) out << " (clique-core gap " << gap << ")";
  out << "\n";
  write_stats_text(lz, out);
}

void render_json(const RunReport& r, std::ostream& out) {
  JsonWriter w(out);
  w.open();
  if (!r.request_id.empty()) w.field("request_id", r.request_id);
  if (!r.request_status.empty()) w.field("status", r.request_status);
  w.field("graph", r.graph);
  w.field("solver", r.solver);
  w.field("threads", r.threads);
  w.field("num_vertices", r.num_vertices);
  w.field("num_edges", r.num_edges);
  w.field("load_seconds", r.load_seconds);
  w.field("load_path", r.load_path);
  w.field("solve_seconds", r.solve_seconds);
  w.field("omega", r.omega);
  w.field("timed_out", r.timed_out);
  w.field("interrupted", r.interrupted);
  w.field("verification", r.verification);
  if (!r.has_mce) w.field("clique", r.clique);
  if (r.has_mce) w.field("maximal_clique_count", r.mce_count);
  if (r.has_lazymc) {
    const auto& lz = r.lazymc;
    w.field("heuristic_degree_omega", lz.heuristic_degree_omega);
    w.field("heuristic_coreness_omega", lz.heuristic_coreness_omega);
    w.field("degeneracy", lz.degeneracy);
    write_stats_json(lz, w);
  }
  if (!r.fault_sites.empty()) {
    w.open("fault_injection");
    for (const auto& site : r.fault_sites) {
      w.open(site.name);
      w.field("hits", site.hits);
      w.field("fires", site.fires);
      w.field("armed", site.armed);
      w.close();
    }
    w.close();
  }
  w.close();
  out << "\n";
}

RunReport report_header(const LoadedGraph& loaded, const std::string& solver) {
  RunReport report;
  report.graph = loaded.description;
  report.solver = solver;
  report.threads = num_threads();
  report.num_vertices = loaded.graph.num_vertices();
  report.num_edges = loaded.graph.num_edges();
  report.load_seconds = loaded.load_seconds;
  report.load_path = loaded.load_path;
  return report;
}

void verify_report(RunReport& report, const Graph& g) {
  if (!report.has_mce) {
    const bool ok =
        report.clique.size() == static_cast<std::size_t>(report.omega) &&
        is_clique(g, report.clique);
    report.verification = ok ? "ok" : "failed";
  }
  report.fault_sites = faults::snapshot();
}

RunReport solve_lazymc(const LoadedGraph& loaded, mc::LazyMCConfig config) {
  RunReport report = report_header(loaded, solver_name(Solver::kLazyMc));
  mc::PrebuiltGraph prebuilt;
  if (loaded.store && loaded.store->has_order()) {
    prebuilt.order = &loaded.store->order();
    prebuilt.coreness = &loaded.store->coreness();
    prebuilt.degeneracy = loaded.store->degeneracy();
    prebuilt.rows = loaded.store->rows();
    config.prebuilt = &prebuilt;
  }
  WallTimer timer;
  report.lazymc = mc::lazy_mc(loaded.graph, config);
  report.solve_seconds = timer.elapsed();
  report.has_lazymc = true;
  report.clique = report.lazymc.clique;
  report.omega = report.lazymc.omega;
  report.timed_out = report.lazymc.timed_out;
  verify_report(report, loaded.graph);
  return report;
}

}  // namespace lazymc::cli
