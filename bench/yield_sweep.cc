// Yield curves on an imperfect nanotube fabric (arch/defect.h): the full
// NanoMap flow — schedule, cluster, place, route, bitmap — runs against
// seeded random defect maps at increasing defect rates, and each
// (circuit, rate) cell reports the fraction of defect seeds that still
// produced a feasible mapping. Besides the curves, every feasible run
// *asserts* that the emitted configuration never touches a defective
// resource (verify_bitmap_defects) and that the routing is structurally
// valid, so the benchmark doubles as an end-to-end defect-avoidance check
// and exits nonzero on any violation.
//
// Defect rates are applied as: LE rate r, wire-track rate r, SMB rate
// r/4 (a dead SMB kills all its LEs at once, so whole-site defects are
// kept rarer than element defects, mirroring area-proportional yield).
//
// Every cell runs on two fabrics: the paper instance ("full"), where
// routing converges at rung 0, and the paper instance with its channels
// halved ("half": len1 14, len4 7, global 4, direct 6, the perfbench
// defect_fabric channels), where PathFinder negotiates, cycles stall and
// the recovery ladder climbs. Each row records how many route events its
// trail holds and how many folding cycles the stall rule stopped.
//
// The report opens with a host header: hardware threads, build type and
// the `git describe` passed in.
//
//   ./bench/yield_sweep [--smoke] [--git-describe D] [out.json]
//                       (default BENCH_yield.json)
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "arch/defect.h"
#include "bitstream/bitmap.h"
#include "circuits/benchmarks.h"
#include "circuits/random_dag.h"
#include "flow/nanomap_flow.h"
#include "route/rr_graph.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "util/trace.h"

using namespace nanomap;

namespace {

struct Fabric {
  std::string name;
  ArchParams arch;
};

std::vector<Fabric> fabrics() {
  Fabric full{"full", ArchParams::paper_instance()};
  Fabric half{"half", ArchParams::paper_instance()};
  half.arch.len1_tracks = 14;
  half.arch.len4_tracks = 7;
  half.arch.global_tracks = 4;
  half.arch.direct_links_per_side = 6;
  return {full, half};
}

struct Row {
  std::string fabric;
  std::string circuit;
  double rate = 0.0;
  std::uint64_t defect_seed = 0;
  bool feasible = false;
  std::string error_kind;
  int num_les = 0;
  int num_smbs = 0;
  int num_cycles = 0;
  double delay_ns = 0.0;
  long dead_smb_sites = 0;   // on the winning placement grid
  long dead_le_slots = 0;
  bool clean_bitstream = false;  // verify_bitmap_defects verdict
  bool valid_routing = false;    // validate_routing verdict
  int route_events = 0;    // escalate / fallback / recovered route events
  long stalled_cycles = 0; // route.stalled_cycles over the whole run
};

Design load_circuit(const std::string& name) {
  if (name == "random-dag120") {
    RandomDagSpec spec;
    spec.luts_per_plane = 120;
    spec.depth = 10;
    spec.num_inputs = 24;
    spec.seed = 127;
    return make_random_design(spec);
  }
  return make_benchmark(name);
}

Row run_one(const Fabric& fabric, const std::string& circuit,
            const Design& design, double rate, std::uint64_t defect_seed) {
  Row row;
  row.fabric = fabric.name;
  row.circuit = circuit;
  row.rate = rate;
  row.defect_seed = defect_seed;

  FlowOptions opts;
  opts.arch = fabric.arch;
  opts.arch.defects.seed = defect_seed;
  opts.arch.defects.le_rate = rate;
  opts.arch.defects.wire_rate = rate;
  opts.arch.defects.smb_rate = rate / 4.0;
  opts.collect_trace = true;  // for route.stalled_cycles; never changes results

  FlowResult r = run_nanomap(design, opts);
  row.feasible = r.feasible;
  row.error_kind = flow_error_kind_name(r.error_kind);
  for (const FlowEvent& e : r.diagnostics.events)
    if (e.stage == "route") ++row.route_events;
  for (const TraceCounterRow& c : r.report.counters)
    if (c.site == "route.stalled_cycles") row.stalled_cycles = c.value;
  if (!r.feasible) return row;

  row.num_les = r.num_les;
  row.num_smbs = r.num_smbs;
  row.num_cycles = r.bitmap.num_cycles;
  row.delay_ns = r.delay_ns;

  // Defect-avoidance audit on the fabric the winning rung routed.
  const Placement& placement = r.placement.placement;
  const DefectSpec& spec = r.routed_arch.defects;
  const int les = r.routed_arch.les_per_smb();
  for (int y = 0; y < placement.grid.height; ++y) {
    for (int x = 0; x < placement.grid.width; ++x) {
      if (defect_smb_dead(spec, x, y)) {
        ++row.dead_smb_sites;
        continue;
      }
      for (int s = 0; s < les; ++s)
        if (defect_le_dead(spec, x, y, s)) ++row.dead_le_slots;
    }
  }
  RrGraph rr(placement.grid, r.routed_arch);
  std::string why;
  row.clean_bitstream = verify_bitmap_defects(r.bitmap, placement, rr, &why);
  if (!row.clean_bitstream)
    std::fprintf(stderr, "DEFECT VIOLATION (%s %s, rate %g, seed %llu): %s\n",
                 fabric.name.c_str(), circuit.c_str(), rate,
                 static_cast<unsigned long long>(defect_seed), why.c_str());
  row.valid_routing =
      validate_routing(r.clustered, placement, rr, r.routing, &why);
  if (!row.valid_routing)
    std::fprintf(stderr, "INVALID ROUTING (%s %s, rate %g, seed %llu): %s\n",
                 fabric.name.c_str(), circuit.c_str(), rate,
                 static_cast<unsigned long long>(defect_seed), why.c_str());
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string git_describe = "unknown";
  std::string out_path = "BENCH_yield.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else if (arg == "--git-describe" && i + 1 < argc)
      git_describe = argv[++i];
    else
      out_path = arg;
  }

  const std::vector<std::string> circuits =
      smoke ? std::vector<std::string>{"ex1", "random-dag120"}
            : std::vector<std::string>{"ex1", "Paulin", "ASPP4",
                                       "random-dag120"};
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.03}
            : std::vector<double>{0.0, 0.01, 0.03, 0.08};
  // The smoke's one defect seed is 2: its half-fabric ex1 cell at rate
  // 0.03 climbs the recovery ladder past a stalled cycle.
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{2} : std::vector<std::uint64_t>{1, 2, 3};

  std::vector<Design> designs;
  for (const std::string& circuit : circuits)
    designs.push_back(load_circuit(circuit));

  std::vector<Row> rows;
  bool all_clean = true;
  for (const Fabric& fabric : fabrics()) {
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      const std::string& circuit = circuits[c];
      for (double rate : rates) {
        int feasible = 0;
        for (std::uint64_t seed : seeds) {
          Row row = run_one(fabric, circuit, designs[c], rate, seed);
          if (row.feasible) {
            ++feasible;
            all_clean = all_clean && row.clean_bitstream && row.valid_routing;
          }
          std::printf(
              "%-4s %-14s rate %.3f seed %llu  %s%s, %d route events, %ld "
              "stalled cycles\n",
              fabric.name.c_str(), circuit.c_str(), rate,
              static_cast<unsigned long long>(seed),
              row.feasible ? "feasible" : "infeasible",
              row.feasible
                  ? (" (" + std::to_string(row.num_les) + " LEs, " +
                     std::to_string(row.dead_smb_sites) +
                     " dead sites, clean " +
                     (row.clean_bitstream ? "yes" : "NO") + ")")
                        .c_str()
                  : (" [" + row.error_kind + "]").c_str(),
              row.route_events, row.stalled_cycles);
          rows.push_back(std::move(row));
        }
        std::printf("%-4s %-14s rate %.3f  yield %d/%zu\n",
                    fabric.name.c_str(), circuit.c_str(), rate, feasible,
                    seeds.size());
      }
    }
  }

  // Emit BENCH_yield.json (schema in docs/FORMATS.md) through the shared
  // JSON writer — same escaping and dialect as the --report=json output.
  JsonWriter w;
  w.begin_object();
  w.field("unit", "feasible defect seeds / total defect seeds (yield)");
  w.field("defect_model",
          "seeded Bernoulli per resource: le_rate = wire_rate = rate, "
          "smb_rate = rate / 4 (arch/defect.h)");
  w.field("smoke", smoke);
  w.field("hardware_threads",
          static_cast<long>(ThreadPool::hardware_threads()));
  w.field("build_type", NANOMAP_BUILD_TYPE);
  w.field("git_describe", git_describe);
  w.key("rows");
  w.begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.field("fabric", r.fabric);
    w.field("circuit", r.circuit);
    w.field("rate", r.rate);
    w.field("defect_seed", static_cast<long>(r.defect_seed));
    w.field("feasible", r.feasible);
    w.field("error_kind", r.error_kind);
    w.field("num_les", r.num_les);
    w.field("num_smbs", r.num_smbs);
    w.field("num_cycles", r.num_cycles);
    w.field("delay_ns", r.delay_ns);
    w.field("dead_smb_sites", r.dead_smb_sites);
    w.field("dead_le_slots", r.dead_le_slots);
    w.field("clean_bitstream", r.clean_bitstream);
    w.field("valid_routing", r.valid_routing);
    w.field("route_events", r.route_events);
    w.field("stalled_cycles", r.stalled_cycles);
    w.end();
  }
  w.end();
  w.key("yield");
  w.begin_array();
  for (const Fabric& fabric : fabrics()) {
    for (const std::string& circuit : circuits) {
      for (double rate : rates) {
        int feasible = 0, total = 0;
        for (const Row& r : rows)
          if (r.fabric == fabric.name && r.circuit == circuit &&
              r.rate == rate) {
            ++total;
            if (r.feasible) ++feasible;
          }
        w.begin_object();
        w.field("fabric", fabric.name);
        w.field("circuit", circuit);
        w.field("rate", rate);
        w.field("feasible", feasible);
        w.field("total", total);
        w.field("yield",
                total > 0 ? static_cast<double>(feasible) / total : 0.0);
        w.end();
      }
    }
  }
  w.end();
  w.end();
  std::ofstream out(out_path);
  out << w.str();
  std::printf("wrote %s\n", out_path.c_str());
  return all_clean ? 0 : 1;
}
