// Golden tests for the run report renderers (src/cli/report.cpp).
//
// Builds RunReports with a distinct value in every field and pins the
// exact bytes render_text and render_json produce: field set, key order,
// nesting, number formatting (fixed 3 decimals in text, 9 significant
// digits in JSON) and every conditional line.  lazymcd's solve replies
// are render_json output, so these strings also pin the daemon schema.
//
//   loud   — every conditional line prints: request framing, timeout and
//            interrupt banners, fault sites, clique-core gap, anytime
//            improvements, degradations and hybrid rows.
//   quiet  — the same report with those fields at zero.
//   mce    — the enumeration solver's report (no lazymc block).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cli/report.hpp"

namespace lazymc::cli {
namespace {

RunReport loud_report() {
  RunReport r;
  r.request_id = "req-7";
  r.request_status = "timeout";
  r.graph = "gen:golden \"quoted\"";
  r.solver = "lazymc";
  r.threads = 3;
  r.num_vertices = 101;
  r.num_edges = 1002;
  r.load_seconds = 0.0123456789;
  r.load_path = "mmap";
  r.solve_seconds = 2.3456789012;
  r.clique = {4, 8, 15, 16, 23};
  r.omega = 5;
  r.timed_out = true;
  r.interrupted = true;
  r.verification = "ok";
  r.has_lazymc = true;
  r.fault_sites = {{"alloc.row", 11, 2, true}, {"conn.io", 13, 0, false}};

  mc::LazyMCResult& lz = r.lazymc;
  lz.clique = r.clique;
  lz.omega = 5;
  lz.heuristic_degree_omega = 3;
  lz.heuristic_coreness_omega = 4;
  lz.degeneracy = 9;
  lz.timed_out = true;

  lz.phases.degree_heuristic = 0.1111111111;
  lz.phases.preprocessing = 0.2222222222;
  lz.phases.must_subgraph = 0.3333333333;
  lz.phases.coreness_heuristic = 0.4444444444;
  lz.phases.systematic = 1.5555555555;

  mc::SearchStatsSnapshot& s = lz.search;
  s.evaluated = 1001;
  s.pass_filter1 = 1002;
  s.pass_filter2 = 1003;
  s.pass_filter3 = 1004;
  s.solved_mc = 1005;
  s.solved_vc = 1006;
  s.vc_fallbacks = 1007;
  s.retired_chunks = 1008;
  s.split_tasks = 1009;
  s.retired_subtasks = 1010;
  s.max_split_depth = 1011;
  s.split_work_rejected = 1012;
  s.degraded_wordsets = 1013;
  s.degraded_splits = 1014;
  s.kernel_merge = 1015;
  s.kernel_gallop = 1016;
  s.kernel_hash = 1017;
  s.kernel_hash_batched = 1018;
  s.kernel_bitset_probe = 1019;
  s.kernel_bitset_word = 1020;
  s.kernel_array_gallop = 1021;
  s.kernel_run_and = 1022;
  s.kernel_word_scalar = 1023;
  s.kernel_word_avx2 = 1024;
  s.kernel_word_avx512 = 1025;
  s.simd_tier = "avx2";
  s.filter_seconds = 0.6666666666;
  s.mc_seconds = 0.7777777777;
  s.vc_seconds = 0.8888888888;
  s.mc_nodes = 1026;
  s.vc_nodes = 1027;
  s.time_to_first_solution = 0.0009876543;
  s.improvements = {{3, 0.0009876543}, {4, 0.0456789012}, {5, 1.2345678901}};

  LazyGraph::Stats& g = lz.lazy_graph;
  g.hash_built = 2001;
  g.sorted_built = 2002;
  g.bitset_built = 2003;
  g.bitset_degraded = 2004;
  g.rows_prebuilt = 2005;
  g.bitset_bytes = 2006;
  g.zone_size = 2007;
  g.neighbors_kept = 2008;
  g.neighbors_filtered = 2009;
  g.hybrid_rows_array = 2010;
  g.hybrid_rows_bitset = 2011;
  g.hybrid_rows_run = 2012;
  g.hybrid_array_bytes = 2013;
  g.hybrid_bitset_bytes = 2014;
  g.hybrid_run_bytes = 2015;
  return r;
}

RunReport quiet_report() {
  RunReport r = loud_report();
  r.request_id.clear();
  r.request_status.clear();
  r.timed_out = false;
  r.interrupted = false;
  r.fault_sites.clear();
  mc::LazyMCResult& lz = r.lazymc;
  lz.timed_out = false;
  lz.degeneracy = 2;  // gap d + 1 - omega < 0: no clique-core gap clause
  lz.search.degraded_wordsets = 0;
  lz.search.degraded_splits = 0;
  lz.search.time_to_first_solution = 0;
  lz.search.improvements.clear();
  lz.lazy_graph.bitset_degraded = 0;
  lz.lazy_graph.hybrid_rows_array = 0;
  lz.lazy_graph.hybrid_rows_bitset = 0;
  lz.lazy_graph.hybrid_rows_run = 0;
  lz.lazy_graph.hybrid_array_bytes = 0;
  lz.lazy_graph.hybrid_bitset_bytes = 0;
  lz.lazy_graph.hybrid_run_bytes = 0;
  return r;
}

RunReport mce_report() {
  RunReport r;
  r.graph = "gen:golden";
  r.solver = "mce";
  r.threads = 1;
  r.num_vertices = 7;
  r.num_edges = 9;
  r.load_seconds = 0.5;
  r.load_path = "gen";
  r.solve_seconds = 0.25;
  r.omega = 3;
  r.has_mce = true;
  r.mce_count = 42;
  return r;
}

std::string text(const RunReport& r) {
  std::ostringstream out;
  render_text(r, out);
  return out.str();
}

std::string json(const RunReport& r) {
  std::ostringstream out;
  render_json(r, out);
  return out.str();
}

TEST(ReportGolden, LoudText) {
  EXPECT_EQ(text(loud_report()), R"golden(graph:    gen:golden "quoted"  (101 vertices, 1002 edges; loaded in 0.012s via mmap)
solver:   lazymc  (3 threads)
omega:    5
clique:   4 8 15 16 23
verification: ok
TIMED OUT (result is a lower bound)
INTERRUPTED (result is best-so-far)
time:     2.346s
faults:   alloc.row=2/11* conn.io=0/13  (fires/hits, * = armed)

heuristics: degree omega_d=3, coreness omega_h=4; degeneracy d=9 (clique-core gap 5)
phases (s): degree-heur=0.111 preprocess=0.222 must-subgraph=0.333 coreness-heur=0.444 systematic=1.556 total=2.667
search:   evaluated=1001 pass1=1002 pass2=1003 pass3=1004 solved-mc=1005 solved-vc=1006 vc-fallbacks=1007 retired-chunks=1008
split:    tasks=1009 retired-subtasks=1010 max-depth=1011 work-rejected=1012
anytime:  first-solution=0.001s improvements=3 (last at 1.235s)
degraded: bitset-rows=2004 wordsets=1013 splits=1014 (recovered allocation failures)
          mc-nodes=1026 vc-nodes=1027 filter=0.667s mc=0.778s vc=0.889s
kernels:  merge=1015 gallop=1016 hash=1017 hash-batched=1018 bitset-probe=1019 bitset-word=1020 array-gallop=1021 run-and=1022
          simd-tier=avx2 word-scalar=1023 word-avx2=1024 word-avx512=1025
lazygraph: hash-built=2001 sorted-built=2002 bitset-built=2003 rows-prebuilt=2005 bitset-bytes=2006 zone=2007
           neighbors-kept=2008 neighbors-filtered=2009
hybrid:   rows array=2010 bitset=2011 run=2012
          bytes array=2013 bitset=2014 run=2015
)golden");
}

TEST(ReportGolden, LoudJson) {
  EXPECT_EQ(json(loud_report()), R"golden({"request_id":"req-7","status":"timeout","graph":"gen:golden \"quoted\"","solver":"lazymc","threads":3,"num_vertices":101,"num_edges":1002,"load_seconds":0.0123456789,"load_path":"mmap","solve_seconds":2.3456789,"omega":5,"timed_out":true,"interrupted":true,"verification":"ok","clique":[4,8,15,16,23],"heuristic_degree_omega":3,"heuristic_coreness_omega":4,"degeneracy":9,"phases":{"degree_heuristic":0.111111111,"preprocessing":0.222222222,"must_subgraph":0.333333333,"coreness_heuristic":0.444444444,"systematic":1.55555556,"total":2.66666667},"search":{"evaluated":1001,"pass_filter1":1002,"pass_filter2":1003,"pass_filter3":1004,"solved_mc":1005,"solved_vc":1006,"vc_fallbacks":1007,"retired_chunks":1008,"split_tasks":1009,"retired_subtasks":1010,"max_split_depth":1011,"split_work_rejected":1012,"time_to_first_solution":0.0009876543,"improvements":[{"size":3,"seconds":0.0009876543},{"size":4,"seconds":0.0456789012},{"size":5,"seconds":1.23456789}],"filter_seconds":0.666666667,"mc_seconds":0.777777778,"vc_seconds":0.888888889,"mc_nodes":1026,"vc_nodes":1027,"kernels":{"merge":1015,"gallop":1016,"hash":1017,"hash_batched":1018,"bitset_probe":1019,"bitset_word":1020,"array_gallop":1021,"run_and":1022,"tier":"avx2","word_scalar":1023,"word_avx2":1024,"word_avx512":1025}},"lazy_graph":{"hash_built":2001,"sorted_built":2002,"bitset_built":2003,"rows_prebuilt":2005,"bitset_bytes":2006,"zone_size":2007,"neighbors_kept":2008,"neighbors_filtered":2009,"hybrid_rows":{"array":2010,"bitset":2011,"run":2012,"array_bytes":2013,"bitset_bytes":2014,"run_bytes":2015}},"degradations":{"bitset_rows":2004,"wordsets":1013,"splits":1014},"fault_injection":{"alloc.row":{"hits":11,"fires":2,"armed":true},"conn.io":{"hits":13,"fires":0,"armed":false}}}
)golden");
}

TEST(ReportGolden, QuietText) {
  EXPECT_EQ(text(quiet_report()), R"golden(graph:    gen:golden "quoted"  (101 vertices, 1002 edges; loaded in 0.012s via mmap)
solver:   lazymc  (3 threads)
omega:    5
clique:   4 8 15 16 23
verification: ok
time:     2.346s

heuristics: degree omega_d=3, coreness omega_h=4; degeneracy d=2
phases (s): degree-heur=0.111 preprocess=0.222 must-subgraph=0.333 coreness-heur=0.444 systematic=1.556 total=2.667
search:   evaluated=1001 pass1=1002 pass2=1003 pass3=1004 solved-mc=1005 solved-vc=1006 vc-fallbacks=1007 retired-chunks=1008
split:    tasks=1009 retired-subtasks=1010 max-depth=1011 work-rejected=1012
          mc-nodes=1026 vc-nodes=1027 filter=0.667s mc=0.778s vc=0.889s
kernels:  merge=1015 gallop=1016 hash=1017 hash-batched=1018 bitset-probe=1019 bitset-word=1020 array-gallop=1021 run-and=1022
          simd-tier=avx2 word-scalar=1023 word-avx2=1024 word-avx512=1025
lazygraph: hash-built=2001 sorted-built=2002 bitset-built=2003 rows-prebuilt=2005 bitset-bytes=2006 zone=2007
           neighbors-kept=2008 neighbors-filtered=2009
)golden");
}

TEST(ReportGolden, QuietJson) {
  EXPECT_EQ(json(quiet_report()), R"golden({"graph":"gen:golden \"quoted\"","solver":"lazymc","threads":3,"num_vertices":101,"num_edges":1002,"load_seconds":0.0123456789,"load_path":"mmap","solve_seconds":2.3456789,"omega":5,"timed_out":false,"interrupted":false,"verification":"ok","clique":[4,8,15,16,23],"heuristic_degree_omega":3,"heuristic_coreness_omega":4,"degeneracy":2,"phases":{"degree_heuristic":0.111111111,"preprocessing":0.222222222,"must_subgraph":0.333333333,"coreness_heuristic":0.444444444,"systematic":1.55555556,"total":2.66666667},"search":{"evaluated":1001,"pass_filter1":1002,"pass_filter2":1003,"pass_filter3":1004,"solved_mc":1005,"solved_vc":1006,"vc_fallbacks":1007,"retired_chunks":1008,"split_tasks":1009,"retired_subtasks":1010,"max_split_depth":1011,"split_work_rejected":1012,"time_to_first_solution":0,"improvements":[],"filter_seconds":0.666666667,"mc_seconds":0.777777778,"vc_seconds":0.888888889,"mc_nodes":1026,"vc_nodes":1027,"kernels":{"merge":1015,"gallop":1016,"hash":1017,"hash_batched":1018,"bitset_probe":1019,"bitset_word":1020,"array_gallop":1021,"run_and":1022,"tier":"avx2","word_scalar":1023,"word_avx2":1024,"word_avx512":1025}},"lazy_graph":{"hash_built":2001,"sorted_built":2002,"bitset_built":2003,"rows_prebuilt":2005,"bitset_bytes":2006,"zone_size":2007,"neighbors_kept":2008,"neighbors_filtered":2009,"hybrid_rows":{"array":0,"bitset":0,"run":0,"array_bytes":0,"bitset_bytes":0,"run_bytes":0}},"degradations":{"bitset_rows":0,"wordsets":0,"splits":0}}
)golden");
}

TEST(ReportGolden, MceText) {
  EXPECT_EQ(text(mce_report()), R"golden(graph:    gen:golden  (7 vertices, 9 edges; loaded in 0.500s via gen)
solver:   mce  (1 thread)
maximal cliques: 42
largest maximal clique (omega): 3
time:     0.250s
)golden");
}

TEST(ReportGolden, MceJson) {
  EXPECT_EQ(json(mce_report()), R"golden({"graph":"gen:golden","solver":"mce","threads":1,"num_vertices":7,"num_edges":9,"load_seconds":0.5,"load_path":"gen","solve_seconds":0.25,"omega":3,"timed_out":false,"interrupted":false,"verification":"skipped","maximal_clique_count":42}
)golden");
}

}  // namespace
}  // namespace lazymc::cli
