// Wall-clock speedup of the flow's two pooled stages vs. --threads, on a
// >= 500-LUT random circuit: the multi-seed annealing restarts, then
// routing of the placement with its folding cycles negotiated on the same
// pool. Every thread count must produce byte-identical placement and
// routing — the determinism contract this parallelism is allowed to
// exist under — and the run exits 1 on any divergence.
//
// Usage: parallel_speedup [luts-per-plane] [restarts]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "circuits/random_dag.h"
#include "core/estimate.h"
#include "flow/nanomap_flow.h"
#include "route/pathfinder.h"
#include "route/rr_graph.h"

using namespace nanomap;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const int luts = argc > 1 ? std::atoi(argv[1]) : 600;
  const int restarts = argc > 2 ? std::atoi(argv[2]) : 4;

  RandomDagSpec spec;
  spec.num_planes = 1;
  spec.luts_per_plane = luts;
  spec.depth = 12;
  spec.num_inputs = 32;
  spec.regs_per_plane = 16;
  spec.seed = 7;
  Design d = make_random_design(spec);

  // Schedule + cluster once (sequential stages shared by every config).
  FlowOptions fo;
  fo.arch = ArchParams::paper_instance_unbounded_k();
  fo.forced_folding_level = 2;
  fo.run_physical = false;
  FlowResult base = run_nanomap(d, fo);
  if (!base.feasible) {
    std::fprintf(stderr, "scheduling infeasible: %s\n", base.message.c_str());
    return 1;
  }
  const ClusteredDesign& cd = base.clustered;
  std::printf("circuit: %d LUTs -> %d SMBs, %zu nets, %d folding cycles\n",
              spec.luts_per_plane, cd.num_smbs, cd.nets.size(),
              cd.num_cycles);
  std::printf("hardware threads: %d; placement restarts: %d\n\n",
              ThreadPool::hardware_threads(), restarts);
  if (ThreadPool::hardware_threads() == 1)
    std::printf("NOTE: single hardware thread — expect speedup ~1.0x here; "
                "the table demonstrates determinism, not scaling.\n\n");

  PlacementOptions po;
  po.seed = 42;
  po.restarts = restarts;

  std::printf("%-8s %14s %10s %14s %10s\n", "threads", "place-secs",
              "place-x", "route-secs", "route-x");
  double place_t1 = 0.0;
  double route_t1 = 0.0;
  std::vector<int> reference_sites;
  std::vector<std::vector<int>> reference_wires;
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);

    auto t0 = std::chrono::steady_clock::now();
    PlacementResult placed = place_design(cd, fo.arch, po, &pool);
    double place_s = seconds_since(t0);

    RrGraph rr(placed.placement.grid, fo.arch);
    t0 = std::chrono::steady_clock::now();
    RoutingResult routed = route_design(cd, placed.placement, rr, {}, &pool);
    double route_s = seconds_since(t0);
    std::vector<std::vector<int>> wires;
    for (const NetRoute& nr : routed.nets) wires.push_back(nr.wire_nodes);

    if (threads == 1) {
      place_t1 = place_s;
      route_t1 = route_s;
      reference_sites = placed.placement.site_of_smb;
      reference_wires = wires;
    } else {
      if (placed.placement.site_of_smb != reference_sites ||
          wires != reference_wires) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION at threads=%d: results differ "
                     "from threads=1\n",
                     threads);
        return 1;
      }
    }
    std::printf("%-8d %14.3f %9.2fx %14.3f %9.2fx\n", threads, place_s,
                place_t1 / place_s, route_s, route_t1 / route_s);
  }
  std::printf("\nresults byte-identical across all thread counts: yes\n");
  return 0;
}
