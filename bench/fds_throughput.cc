// FDS scheduling throughput: the incremental kernel (core/fds_kernel.h)
// vs. the retained from-scratch reference scheduler
// (schedule_plane_reference), on the paper circuits and a sweep of random
// DAGs. Besides the pins/sec comparison, every run *asserts* that both
// schedulers produce identical stage_of vectors — the benchmark doubles as
// an end-to-end identity check and exits nonzero on any divergence.
// Results are written under a host header (hardware threads, build type,
// the `git describe` passed in).
//
//   ./bench/fds_throughput [--smoke] [--git-describe D] [out.json]
//   (default out.json: BENCH_fds.json)
//
// --smoke (CI) keeps ex1, c5315, Paulin (two planes) and the smallest
// random DAG with a short timing window; every row still asserts identity.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "circuits/benchmarks.h"
#include "circuits/random_dag.h"
#include "core/fds.h"
#include "core/fds_reference.h"
#include "netlist/plane.h"
#include "util/json.h"
#include "util/thread_pool.h"

using namespace nanomap;

namespace {

struct Row {
  std::string name;
  int nodes = 0;   // schedule nodes across all planes
  int stages = 0;  // folding stages (level-1 graphs)
  double ref_pps = 0.0;        // from-scratch scheduler, pins/sec
  double kernel_pps = 0.0;     // incremental kernel
  bool identical = false;
};

std::vector<PlaneScheduleGraph> graphs_for(const Design& d, int level) {
  CircuitParams p = extract_circuit_params(d.net);
  FoldingConfig cfg = make_folding_config(p, level);
  std::vector<PlaneScheduleGraph> graphs;
  for (int plane = 0; plane < p.num_plane; ++plane)
    graphs.push_back(build_schedule_graph(d, plane, cfg));
  return graphs;
}

// Schedules every plane once, returning the concatenated stage_of vectors;
// repeats until >= min_seconds accumulated (first rep is a cold-cache
// warm-up).
template <typename ScheduleFn>
double measure_pps(const std::vector<PlaneScheduleGraph>& graphs,
                   const ArchParams& arch, double min_seconds,
                   ScheduleFn schedule, std::vector<int>* stages_out) {
  double seconds = 0.0;
  long pins = 0;
  int reps = 0;
  while (seconds < min_seconds || reps < 2) {
    stages_out->clear();
    auto t0 = std::chrono::steady_clock::now();
    long rep_pins = 0;
    for (const PlaneScheduleGraph& g : graphs) {
      FdsResult r = schedule(g, arch);
      rep_pins += static_cast<long>(r.stage_of.size());
      stages_out->insert(stages_out->end(), r.stage_of.begin(),
                         r.stage_of.end());
    }
    auto t1 = std::chrono::steady_clock::now();
    if (reps > 0) {
      seconds += std::chrono::duration<double>(t1 - t0).count();
      pins += rep_pins;
    }
    ++reps;
    if (reps > 500) break;
  }
  return seconds > 0 ? static_cast<double>(pins) / seconds : 0.0;
}

Row measure(const std::string& name,
            const std::vector<PlaneScheduleGraph>& graphs,
            double min_seconds) {
  const ArchParams arch = ArchParams::paper_instance_unbounded_k();
  Row row;
  row.name = name;
  for (const PlaneScheduleGraph& g : graphs) {
    row.nodes += static_cast<int>(g.nodes.size());
    row.stages = std::max(row.stages, g.num_stages);
  }

  std::vector<int> ref_stages, kernel_stages;
  row.ref_pps = measure_pps(
      graphs, arch, min_seconds,
      [](const PlaneScheduleGraph& g, const ArchParams& a) {
        return schedule_plane_reference(g, a);
      },
      &ref_stages);
  row.kernel_pps = measure_pps(
      graphs, arch, min_seconds,
      [](const PlaneScheduleGraph& g, const ArchParams& a) {
        return schedule_plane(g, a);
      },
      &kernel_stages);
  row.identical = ref_stages == kernel_stages;
  return row;
}

std::vector<PlaneScheduleGraph> random_dag_graphs(int luts,
                                                  std::uint64_t seed) {
  RandomDagSpec spec;
  spec.luts_per_plane = luts;
  spec.depth = 10;
  spec.regs_per_plane = 8;
  spec.seed = seed;
  return graphs_for(make_random_design(spec), 1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string git_describe = "unknown";
  std::string out_path = "BENCH_fds.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else if (arg == "--git-describe" && i + 1 < argc)
      git_describe = argv[++i];
    else
      out_path = arg;
  }
  const double min_seconds = smoke ? 0.02 : 0.2;
  std::vector<Row> rows;

  // The paper's standard circuits at folding level 1 (every plane).
  for (const std::string& name : benchmark_names()) {
    if (smoke && name != "ex1" && name != "c5315" && name != "Paulin")
      continue;
    rows.push_back(
        measure(name, graphs_for(make_benchmark(name), 1), min_seconds));
  }

  // Random DAG sweep: node counts from "paper-sized" up to the regime
  // where the seed's from-scratch rescoring dominated.
  for (int luts : {120, 250, 500, 800}) {
    if (smoke && luts != 120) continue;
    rows.push_back(measure("random-dag" + std::to_string(luts),
                           random_dag_graphs(luts, 40 + luts), min_seconds));
  }

  // Emit BENCH_fds.json (schema in docs/FORMATS.md) through the shared
  // JSON writer — same escaping and dialect as the --report=json output.
  // Rates round to whole pins/sec, ratios to two decimals.
  auto round2 = [](double v) { return std::round(v * 100.0) / 100.0; };
  JsonWriter w;
  w.begin_object();
  w.field("unit",
          "pins/sec (scheduled nodes per second, all planes, refine "
          "included)");
  w.field("reference",
          "retained from-scratch scheduler (core/fds_reference.cc)");
  w.field("kernel", "incremental FDS kernel (core/fds_kernel.h)");
  w.field("smoke", smoke);
  w.field("hardware_threads",
          static_cast<long>(ThreadPool::hardware_threads()));
  w.field("build_type", NANOMAP_BUILD_TYPE);
  w.field("git_describe", git_describe);
  w.key("rows");
  w.begin_array();
  bool all_identical = true;
  for (const Row& r : rows) {
    all_identical = all_identical && r.identical;
    w.begin_object();
    w.field("circuit", r.name);
    w.field("nodes", r.nodes);
    w.field("stages", r.stages);
    w.field("reference_pins_per_sec", std::round(r.ref_pps));
    w.field("kernel_pins_per_sec", std::round(r.kernel_pps));
    w.field("speedup",
            round2(r.ref_pps > 0 ? r.kernel_pps / r.ref_pps : 0.0));
    w.field("identical_schedule", r.identical);
    w.end();
    std::printf("%-14s nodes %5d stages %2d  ref %9.0f  kernel %9.0f  "
                "speedup %6.2fx  identical %s\n",
                r.name.c_str(), r.nodes, r.stages, r.ref_pps, r.kernel_pps,
                r.ref_pps > 0 ? r.kernel_pps / r.ref_pps : 0.0,
                r.identical ? "yes" : "NO");
  }
  w.end();
  w.end();
  std::ofstream out(out_path);
  out << w.str();
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}
