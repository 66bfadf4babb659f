// Microbenchmarks (google-benchmark) for the flow's computational kernels:
// FlowMap labeling, FDS scheduling, SA placement, PathFinder routing and
// the end-to-end flow. These back the paper's §4.5 complexity discussion
// (FDS O(n^2), placement O(n^{4/3}), flow O(m n^2)) and its <1 min/circuit
// CPU-time claim.
#include <benchmark/benchmark.h>

#include <set>

#include "circuits/benchmarks.h"
#include "circuits/random_dag.h"
#include "flow/nanomap_flow.h"
#include "map/flowmap.h"
#include "place/annealer.h"

using namespace nanomap;

namespace {

void BM_FlowMap(benchmark::State& state) {
  const int gates = static_cast<int>(state.range(0));
  GateNetwork g = make_random_gates(24, gates, 12, 42);
  for (auto _ : state) {
    FlowMapResult r = flowmap(g, 4);
    benchmark::DoNotOptimize(r.num_luts);
  }
  state.SetComplexityN(gates);
}
BENCHMARK(BM_FlowMap)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

void BM_FdsSchedule(benchmark::State& state) {
  RandomDagSpec spec;
  spec.luts_per_plane = static_cast<int>(state.range(0));
  spec.depth = 12;
  spec.seed = 7;
  Design d = make_random_design(spec);
  CircuitParams p = extract_circuit_params(d.net);
  FoldingConfig cfg = make_folding_config(p, 1);
  PlaneScheduleGraph g = build_schedule_graph(d, 0, cfg);
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  for (auto _ : state) {
    FdsResult r = schedule_plane(g, arch);
    benchmark::DoNotOptimize(r.max_le);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FdsSchedule)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Complexity();

// Pin throughput of the incremental FDS kernel itself (items/sec =
// pins/sec), the figure BENCH_fds.json compares against the retained
// from-scratch scheduler.
void BM_FdsPin(benchmark::State& state) {
  RandomDagSpec spec;
  spec.luts_per_plane = static_cast<int>(state.range(0));
  spec.depth = 12;
  spec.seed = 7;
  Design d = make_random_design(spec);
  CircuitParams p = extract_circuit_params(d.net);
  FoldingConfig cfg = make_folding_config(p, 1);
  PlaneScheduleGraph g = build_schedule_graph(d, 0, cfg);
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  FdsOptions opts;
  opts.refine = false;  // isolate the pin loop
  long pins = 0;
  for (auto _ : state) {
    FdsResult r = schedule_plane(g, arch, opts);
    pins += static_cast<long>(r.stage_of.size());
    benchmark::DoNotOptimize(r.max_le);
  }
  state.SetItemsProcessed(pins);
}
BENCHMARK(BM_FdsPin)->Arg(100)->Arg(400)->Arg(800);

void BM_TemporalCluster(benchmark::State& state) {
  Design d = make_benchmark("Biquad");
  CircuitParams p = extract_circuit_params(d.net);
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  DesignSchedule sched;
  sched.folding = make_folding_config(p, static_cast<int>(state.range(0)));
  sched.planes_share = true;
  for (int plane = 0; plane < p.num_plane; ++plane) {
    PlaneScheduleGraph g = build_schedule_graph(d, plane, sched.folding);
    sched.plane_results.push_back(schedule_plane(g, arch));
    sched.graphs.push_back(std::move(g));
  }
  for (auto _ : state) {
    ClusteredDesign cd = temporal_cluster(d, sched, arch);
    benchmark::DoNotOptimize(cd.les_used);
  }
}
BENCHMARK(BM_TemporalCluster)->Arg(1)->Arg(4);

void BM_Placement(benchmark::State& state) {
  Design d = make_benchmark("FIR");
  CircuitParams p = extract_circuit_params(d.net);
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  DesignSchedule sched;
  sched.folding = make_folding_config(p, 0);
  sched.planes_share = false;
  for (int plane = 0; plane < p.num_plane; ++plane) {
    PlaneScheduleGraph g = build_schedule_graph(d, plane, sched.folding);
    sched.plane_results.push_back(schedule_plane(g, arch));
    sched.graphs.push_back(std::move(g));
  }
  ClusteredDesign cd = temporal_cluster(d, sched, arch);
  PlacementOptions opts;
  opts.detailed_effort = static_cast<double>(state.range(0));
  for (auto _ : state) {
    PlacementResult r = place_design(cd, arch, opts);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_Placement)->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);

// Raw annealer move throughput (items/sec = moves/sec) at a given net
// fanout. This is the kernel the incremental bounding-box cache (PR 2)
// accelerates: with cached boxes a move costs O(incident nets) instead of
// O(sum of incident fanouts), so throughput should be nearly flat in the
// fanout argument rather than collapsing linearly.
void BM_AnnealMoves(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  const int smbs = 256;
  ClusteredDesign cd;
  cd.num_cycles = 1;
  cd.num_smbs = smbs;
  Rng gen(99);
  for (int i = 0; i < 512; ++i) {
    PlacedNet pn;
    pn.driver_smb = static_cast<int>(
        gen.next_below(static_cast<std::uint64_t>(smbs)));
    pn.criticality = gen.next_double();
    std::set<int> sinks;
    while (static_cast<int>(sinks.size()) < fanout) {
      int s = static_cast<int>(
          gen.next_below(static_cast<std::uint64_t>(smbs)));
      if (s != pn.driver_smb) sinks.insert(s);
    }
    pn.sink_smbs.assign(sinks.begin(), sinks.end());
    cd.nets.push_back(std::move(pn));
  }
  Placement init;
  init.grid = size_grid_for(cd.num_smbs);
  std::vector<int> sites(static_cast<std::size_t>(init.grid.sites()));
  for (int i = 0; i < init.grid.sites(); ++i)
    sites[static_cast<std::size_t>(i)] = i;
  gen.shuffle(sites);
  init.site_of_smb.assign(sites.begin(), sites.begin() + cd.num_smbs);

  long moves = 0;
  for (auto _ : state) {
    Rng rng(7);
    Annealer a(cd, init, 0.8, &rng);
    a.run(1.0);
    moves += a.moves_attempted();
    benchmark::DoNotOptimize(a.cost());
  }
  state.SetItemsProcessed(moves);
}
BENCHMARK(BM_AnnealMoves)->Arg(2)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_Router(benchmark::State& state) {
  Design d = make_benchmark("ex1");
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  CircuitParams p = extract_circuit_params(d.net);
  DesignSchedule sched;
  sched.folding = make_folding_config(p, 1);
  sched.planes_share = true;
  for (int plane = 0; plane < p.num_plane; ++plane) {
    PlaneScheduleGraph g = build_schedule_graph(d, plane, sched.folding);
    sched.plane_results.push_back(schedule_plane(g, arch));
    sched.graphs.push_back(std::move(g));
  }
  ClusteredDesign cd = temporal_cluster(d, sched, arch);
  PlacementResult placed = place_design(cd, arch);
  RrGraph rr(placed.placement.grid, arch);
  for (auto _ : state) {
    RoutingResult r = route_design(cd, placed.placement, rr);
    benchmark::DoNotOptimize(r.usage.total());
  }
  state.counters["nets"] = static_cast<double>(cd.nets.size());
}
BENCHMARK(BM_Router)->Unit(benchmark::kMillisecond);

void BM_FullFlow(benchmark::State& state) {
  Design d = make_benchmark("ex1");
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.objective = Objective::kAreaDelayProduct;
  for (auto _ : state) {
    FlowResult r = run_nanomap(d, opts);
    benchmark::DoNotOptimize(r.num_les);
  }
  state.SetLabel("paper: <1 min per circuit on a 2GHz PC");
}
BENCHMARK(BM_FullFlow)->Unit(benchmark::kMillisecond);

}  // namespace
