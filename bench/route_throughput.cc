// PathFinder routing throughput: the kernel (route/pathfinder.cc) vs. the
// reference router (route_nets_reference: the seed router plus the stall
// rule), on congested
// narrowed-channel random DAGs. Besides the wall-clock comparison, every
// run *asserts* byte-identity — trees, delays, iteration counts — between
// the reference and the kernel, so the benchmark doubles as an end-to-end
// identity check and exits nonzero on any divergence.
//
// Two scenarios per circuit (schema in docs/FORMATS.md):
//   converge  one route_design call with full budgets (both routers
//             search every net in every iteration);
//   ladder    the flow's recovery-ladder walk (starved budgets, then
//             widened channels with raised budgets), stopping at the
//             first rung that converges; both routers build a fresh RR
//             graph at every rung, as the flow does.
//
// Plus a threads scenario: converge and ladder timed again with a pool of
// N = min(4, hardware threads) workers negotiating the folding cycles
// concurrently. The pooled results join the identity gate — they must
// equal the reference (converge) and the inline walk (ladder) byte for
// byte, and the inline walk must end on the reference's rung and result.
// Rows sit under a host header: hardware threads, build type and the
// `git describe` passed in.
//
//   ./bench/route_throughput [--smoke] [--git-describe D] [out.json]
//   (default out.json: BENCH_route.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "circuits/random_dag.h"
#include "core/estimate.h"
#include "core/fds.h"
#include "core/folding.h"
#include "core/schedule_graph.h"
#include "core/temporal_cluster.h"
#include "place/placement.h"
#include "route/pathfinder.h"
#include "route/pathfinder_reference.h"
#include "util/json.h"
#include "util/thread_pool.h"

using namespace nanomap;

namespace {

struct Physical {
  ClusteredDesign cd;
  Placement p;
};

// Random DAG -> folding -> FDS -> temporal clustering -> placement.
Physical build_physical(int planes, int luts, int depth, int level,
                        std::uint64_t seed, const ArchParams& arch) {
  RandomDagSpec spec;
  spec.num_planes = planes;
  spec.luts_per_plane = luts;
  spec.depth = depth;
  spec.num_inputs = 24;
  spec.seed = seed;
  Design d = make_random_design(spec);
  CircuitParams params = extract_circuit_params(d.net);
  DesignSchedule sched;
  sched.folding = make_folding_config(params, level);
  sched.planes_share = !sched.folding.no_folding();
  for (int plane = 0; plane < params.num_plane; ++plane) {
    PlaneScheduleGraph g = build_schedule_graph(d, plane, sched.folding);
    sched.plane_results.push_back(schedule_plane(g, arch));
    sched.graphs.push_back(std::move(g));
  }
  Physical ph;
  ph.cd = temporal_cluster(d, sched, arch);
  PlacementOptions popts;
  popts.fast_effort = 0.3;
  popts.detailed_effort = 1.0;
  PlacementResult pr = place_design(ph.cd, arch, popts);
  ph.p = pr.placement;
  return ph;
}

// The congested fabric every row routes on: small SMBs (2x2 LEs) so the
// designs spread over many SMBs, and channels narrowed until PathFinder
// needs real negotiation (several rip-up iterations) yet still converges
// under full budgets.
ArchParams narrow_fabric() {
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  arch.les_per_mb = 2;
  arch.mbs_per_smb = 2;
  arch.direct_links_per_side = 2;
  arch.len1_tracks = 4;
  arch.len4_tracks = 2;
  arch.global_tracks = 2;
  return arch;
}

bool identical(const RoutingResult& a, const RoutingResult& b) {
  if (a.success != b.success || a.worst_iterations != b.worst_iterations ||
      a.overused_nodes != b.overused_nodes ||
      a.nets.size() != b.nets.size())
    return false;
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    if (a.nets[i].net_index != b.nets[i].net_index ||
        a.nets[i].sink_smbs != b.nets[i].sink_smbs ||
        a.nets[i].sink_delay_ps != b.nets[i].sink_delay_ps ||
        a.nets[i].wire_nodes != b.nets[i].wire_nodes)
      return false;
  }
  return a.usage.direct == b.usage.direct && a.usage.len1 == b.usage.len1 &&
         a.usage.len4 == b.usage.len4 && a.usage.global == b.usage.global;
}

// Reference vs kernel: the kernel route — inline and on `pool` — must be
// byte-identical to the reference.
bool check_identity(const Physical& ph, const RrGraph& rr,
                    const RouterOptions& opts, ThreadPool* pool) {
  RoutingResult want = route_nets_reference(ph.cd, ph.p, rr, opts);
  return identical(want, route_design(ph.cd, ph.p, rr, opts)) &&
         identical(want, route_design(ph.cd, ph.p, rr, opts, pool));
}

// The recovery-ladder walk the flow performs when budgets are starved:
// starved budgets, then a channel bump routed with raised budgets (same
// formulas as flow/nanomap_flow.cc). The walk stops at the first rung
// that converges.
struct Rung {
  ArchParams arch;
  RouterOptions router;
};

std::vector<Rung> ladder_rungs(const ArchParams& base,
                               const RouterOptions& starved) {
  RouterOptions raised = starved;
  raised.max_iterations = std::max(starved.max_iterations * 3,
                                   starved.max_iterations + 40);
  raised.pres_fac_mult = 1.0 + (starved.pres_fac_mult - 1.0) * 1.5;
  raised.hist_fac = starved.hist_fac * 1.5;
  ArchParams widened = base;
  widened.len1_tracks = std::max(base.len1_tracks + 1,
                                 static_cast<int>(std::ceil(
                                     base.len1_tracks * 1.25)));
  widened.len4_tracks = std::max(base.len4_tracks + 1,
                                 static_cast<int>(std::ceil(
                                     base.len4_tracks * 1.25)));
  widened.global_tracks = std::max(base.global_tracks + 1,
                                   static_cast<int>(std::ceil(
                                       base.global_tracks * 1.25)));
  return {{base, starved}, {widened, raised}};
}

struct LadderWalk {
  RoutingResult result;  // the last rung routed
  int rung = 0;          // its index
};

// A ladder walk: a fresh graph per rung, routed by
// `route(rr, router_options)`.
template <typename RouteFn>
LadderWalk walk_ladder(const Physical& ph, const std::vector<Rung>& rungs,
                       RouteFn route) {
  LadderWalk walk;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    RrGraph rr(ph.p.grid, rungs[i].arch);
    walk.result = route(rr, rungs[i].router);
    walk.rung = static_cast<int>(i);
    if (walk.result.success) break;
  }
  return walk;
}

template <typename Fn>
double measure_ms(int min_reps, Fn body) {
  double seconds = 0.0;
  int reps = 0;
  while (reps < min_reps || (seconds < 0.2 && reps < 500)) {
    auto t0 = std::chrono::steady_clock::now();
    body();
    auto t1 = std::chrono::steady_clock::now();
    if (reps > 0 || min_reps == 1)
      seconds += std::chrono::duration<double>(t1 - t0).count();
    ++reps;
  }
  const int timed = min_reps == 1 ? reps : reps - 1;
  return timed > 0 ? seconds * 1000.0 / timed : 0.0;
}

struct Row {
  std::string name;
  int luts = 0;
  int nets = 0;
  int cycles = 0;
  int worst_iterations = 0;     // full-budget negotiation depth
  bool converged = false;       // full-budget routing is overuse-free
  double ref_ms = 0.0;          // converge scenario, reference router
  double kernel_ms = 0.0;       // converge scenario, kernel
  double ladder_ref_ms = 0.0;   // ladder walk, reference, graph per rung
  double ladder_kernel_ms = 0.0;  // ladder walk, kernel, graph per rung
  int ladder_rung = 0;          // winning rung index
  double pool_ms = 0.0;         // converge scenario, kernel on the pool
  double ladder_pool_ms = 0.0;  // ladder walk, kernel on the pool
  bool identical = false;
};

Row measure(const std::string& name, int planes, int luts, int depth,
            int level, std::uint64_t seed, bool smoke, ThreadPool* pool) {
  const ArchParams arch = narrow_fabric();
  Physical ph = build_physical(planes, luts, depth, level, seed, arch);
  RrGraph rr(ph.p.grid, arch);
  RouterOptions full;  // defaults: max_iterations 60, full negotiation

  Row row;
  row.name = name;
  row.luts = planes * luts;
  row.nets = static_cast<int>(ph.cd.nets.size());
  row.cycles = ph.cd.num_cycles;
  row.identical = check_identity(ph, rr, full, pool);

  const int reps = smoke ? 1 : 3;
  RoutingResult last;
  row.ref_ms = measure_ms(reps, [&] {
    last = route_nets_reference(ph.cd, ph.p, rr, full);
  });
  row.converged = last.success;
  row.worst_iterations = last.worst_iterations;
  row.kernel_ms = measure_ms(reps, [&] {
    last = route_design(ph.cd, ph.p, rr, full);
  });
  row.pool_ms = measure_ms(reps, [&] {
    last = route_design(ph.cd, ph.p, rr, full, pool);
  });

  RouterOptions starved = full;
  starved.max_iterations = 2;
  const std::vector<Rung> rungs = ladder_rungs(arch, starved);
  auto kernel_on = [&](ThreadPool* on) {
    return [&ph, on](const RrGraph& g, const RouterOptions& o) {
      return route_design(ph.cd, ph.p, g, o, on);
    };
  };
  LadderWalk ref_walk;
  row.ladder_ref_ms = measure_ms(reps, [&] {
    ref_walk = walk_ladder(ph, rungs,
                           [&](const RrGraph& g, const RouterOptions& o) {
                             return route_nets_reference(ph.cd, ph.p, g, o);
                           });
  });
  row.ladder_rung = ref_walk.rung;
  LadderWalk inline_walk;
  row.ladder_kernel_ms = measure_ms(
      reps, [&] { inline_walk = walk_ladder(ph, rungs, kernel_on(nullptr)); });
  LadderWalk pooled_walk;
  row.ladder_pool_ms = measure_ms(
      reps, [&] { pooled_walk = walk_ladder(ph, rungs, kernel_on(pool)); });
  row.identical = row.identical &&
                  identical(ref_walk.result, inline_walk.result) &&
                  ref_walk.rung == inline_walk.rung &&
                  identical(inline_walk.result, pooled_walk.result) &&
                  inline_walk.rung == pooled_walk.rung;

  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string git_describe = "unknown";
  std::string out_path = "BENCH_route.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else if (arg == "--git-describe" && i + 1 < argc)
      git_describe = argv[++i];
    else
      out_path = arg;
  }
  const int pool_threads = std::min(4, ThreadPool::hardware_threads());
  ThreadPool pool(pool_threads);

  std::vector<Row> rows;
  //                          planes luts depth level seed
  rows.push_back(measure("random-dag120", 1, 120, 10, 1, 127, smoke, &pool));
  if (!smoke) {
    rows.push_back(
        measure("random-dag160", 1, 160, 12, 1, 167, smoke, &pool));
    rows.push_back(measure("random-dag4x80", 4, 80, 6, 1, 87, smoke, &pool));
    rows.push_back(
        measure("random-dag120-l2", 1, 120, 10, 2, 127, smoke, &pool));
  }

  // Emit BENCH_route.json (schema in docs/FORMATS.md) through the shared
  // JSON writer — same escaping and dialect as the --report=json output.
  auto round2 = [](double v) { return std::round(v * 100.0) / 100.0; };
  JsonWriter w;
  w.begin_object();
  w.field("unit", "milliseconds per routing scenario (lower is better)");
  w.field("reference",
          "reference router: the seed router plus the stall rule "
          "(route/pathfinder_reference.cc)");
  w.field("kernel", "PathFinder kernel (route/pathfinder.cc)");
  w.field("fabric",
          "narrowed channels: 2x2-LE SMBs, direct 2, len1 4, len4 2, "
          "global 2 (paper_instance_unbounded_k otherwise)");
  w.field("smoke", smoke);
  w.field("hardware_threads",
          static_cast<long>(ThreadPool::hardware_threads()));
  w.field("build_type", NANOMAP_BUILD_TYPE);
  w.field("git_describe", git_describe);
  w.field("pool_threads", static_cast<long>(pool_threads));
  w.key("rows");
  w.begin_array();
  bool all_identical = true;
  for (const Row& r : rows) {
    all_identical = all_identical && r.identical;
    w.begin_object();
    w.field("circuit", r.name);
    w.field("luts", r.luts);
    w.field("nets", r.nets);
    w.field("cycles", r.cycles);
    w.field("worst_iterations", r.worst_iterations);
    w.field("converged", r.converged);
    w.field("reference_ms", round2(r.ref_ms));
    w.field("kernel_cold_ms", round2(r.kernel_ms));
    w.field("cold_speedup",
            round2(r.kernel_ms > 0 ? r.ref_ms / r.kernel_ms : 0.0));
    w.field("ladder_reference_ms", round2(r.ladder_ref_ms));
    w.field("ladder_kernel_ms", round2(r.ladder_kernel_ms));
    w.field("ladder_speedup",
            round2(r.ladder_kernel_ms > 0
                       ? r.ladder_ref_ms / r.ladder_kernel_ms
                       : 0.0));
    w.field("ladder_winning_rung", r.ladder_rung);
    w.field("kernel_pool_ms", round2(r.pool_ms));
    w.field("pool_speedup",
            round2(r.pool_ms > 0 ? r.kernel_ms / r.pool_ms : 0.0));
    w.field("ladder_pool_ms", round2(r.ladder_pool_ms));
    w.field("ladder_pool_speedup",
            round2(r.ladder_pool_ms > 0
                       ? r.ladder_kernel_ms / r.ladder_pool_ms
                       : 0.0));
    w.field("identical_routing", r.identical);
    w.end();
    std::printf(
        "%-16s luts %4d nets %4d cycles %2d wi %2d  "
        "cold %7.2f -> %7.2f ms (%5.2fx)  "
        "ladder %7.2f -> %7.2f ms (%5.2fx, rung %d)  "
        "pool x%d cold %7.2f ms (%5.2fx) ladder %7.2f ms (%5.2fx)  "
        "identical %s\n",
        r.name.c_str(), r.luts, r.nets, r.cycles, r.worst_iterations,
        r.ref_ms, r.kernel_ms,
        r.kernel_ms > 0 ? r.ref_ms / r.kernel_ms : 0.0, r.ladder_ref_ms, r.ladder_kernel_ms,
        r.ladder_kernel_ms > 0 ? r.ladder_ref_ms / r.ladder_kernel_ms : 0.0,
        r.ladder_rung, pool_threads, r.pool_ms,
        r.pool_ms > 0 ? r.kernel_ms / r.pool_ms : 0.0, r.ladder_pool_ms,
        r.ladder_pool_ms > 0 ? r.ladder_kernel_ms / r.ladder_pool_ms : 0.0,
        r.identical ? "yes" : "NO");
  }
  w.end();
  w.end();
  std::ofstream out(out_path);
  out << w.str();
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}
