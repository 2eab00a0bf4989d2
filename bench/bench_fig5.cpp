// Figure 5: ablation of the early-exit intersections — slowdown with all
// early exits disabled, and with only the second exit of
// intersect-size-gt-bool disabled.  The toggles change how early a
// kernel returns, never the answer: every instance must report one omega
// across the three configurations, or the bench exits 1.
#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "mc/lazymc.hpp"

using namespace lazymc;

namespace {

struct Run {
  double seconds = 0;
  VertexId omega = 0;      // of the last repeat
  bool timed_out = false;  // any repeat hit --timeout (omega is a bound)
};

Run run(const Graph& g, bool early, bool second, const bench::Options& opt) {
  mc::LazyMCConfig cfg;
  cfg.early_exit_intersections = early;
  cfg.second_exit = second;
  cfg.time_limit_seconds = opt.timeout;
  Run r;
  auto timing = bench::time_runs(opt.repeats, [&] {
    const mc::LazyMCResult result = mc::lazy_mc(g, cfg);
    r.omega = result.omega;
    r.timed_out = r.timed_out || result.timed_out;
  });
  r.seconds = timing.mean_seconds;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::parse_options(argc, argv);
  std::printf(
      "Figure 5: slowdown without early-exit intersections / without the "
      "second exit\n\n");
  bench::Table table(
      {"graph", "base[s]", "no early exits (x)", "no 2nd exit (x)"});

  bool diverged = false;
  for (auto& inst : bench::load_suite(opt)) {
    const Graph& g = inst.graph;
    const Run base = run(g, true, true, opt);
    const Run none = run(g, false, false, opt);
    const Run no2 = run(g, true, false, opt);
    const bool finished = !base.timed_out && !none.timed_out && !no2.timed_out;
    if (finished && (none.omega != base.omega || no2.omega != base.omega)) {
      std::fprintf(stderr,
                   "bench_fig5: omega diverged on %s (base=%u "
                   "no-early-exits=%u no-2nd-exit=%u)\n",
                   inst.name.c_str(), base.omega, none.omega, no2.omega);
      diverged = true;
    }
    const double s = base.seconds;
    table.add_row({inst.name, bench::fmt(s),
                   bench::fmt(s > 0 ? none.seconds / s : 1.0, 2),
                   bench::fmt(s > 0 ? no2.seconds / s : 1.0, 2)});
  }
  table.print();
  std::printf(
      "\nValues above 1 mean the early exits help (paper: up to 3.99x on "
      "dimacs; the second\nexit matters most where filtering dominates).\n");
  return diverged ? EXIT_FAILURE : EXIT_SUCCESS;
}
