// Deep-dive into one mapping: per-folding-cycle LUT/FF/LE usage, SMB
// occupancy, routing wire mix and the critical cycle. Usage:
//   inspect_mapping [circuit] [folding-level]
// circuit: ex1 FIR ex2 c5315 Biquad Paulin ASPP4 (default ex1)
// folding-level: 0 = no folding (default 1)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "circuits/benchmarks.h"
#include "flow/nanomap_flow.h"

int main(int argc, char** argv) {
  using namespace nanomap;
  std::string name = argc > 1 ? argv[1] : "ex1";
  int level = argc > 2 ? std::atoi(argv[2]) : 1;

  Design d = make_benchmark(name);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.forced_folding_level = level;
  FlowResult r = run_nanomap(d, opts);
  if (!r.feasible) {
    std::printf("infeasible: %s\n", r.message.c_str());
    return 1;
  }

  std::printf("%s at level %d: %s\n", name.c_str(), level,
              summarize(r).c_str());
  std::printf("architecture: %s\n\n", describe(opts.arch).c_str());

  std::printf("FDS per-plane, per-stage usage:\n");
  for (std::size_t p = 0; p < r.plane_schedules.size(); ++p) {
    const FdsResult& fr = r.plane_schedules[p];
    for (std::size_t s = 1; s < fr.le_count.size(); ++s) {
      std::printf("  plane %zu stage %2zu: %4d LUTs %4d FFs -> %4d LEs\n", p,
                  s, fr.lut_count[s], fr.ff_count[s], fr.le_count[s]);
    }
  }

  std::printf("\nclustering: %d SMBs, %d LEs used, peak FFs %d\n",
              r.clustered.num_smbs, r.clustered.les_used, r.clustered.ffs_peak);
  // SMB occupancy histogram: how many LUT slots each SMB ever uses.
  std::vector<int> slot_hist(
      static_cast<std::size_t>(opts.arch.les_per_smb()) + 1, 0);
  for (int m = 0; m < r.clustered.num_smbs; ++m) {
    std::vector<bool> used(static_cast<std::size_t>(opts.arch.les_per_smb()),
                           false);
    for (int c = 0; c < r.clustered.num_cycles; ++c) {
      for (int id :
           r.clustered.luts_in[static_cast<std::size_t>(c)]
                              [static_cast<std::size_t>(m)]) {
        used[static_cast<std::size_t>(
            r.clustered.place[static_cast<std::size_t>(id)].slot)] = true;
      }
    }
    slot_hist[static_cast<std::size_t>(
        std::count(used.begin(), used.end(), true))]++;
  }
  std::printf("SMB LUT-slot-usage histogram (slots-used: #SMBs):");
  for (std::size_t i = 0; i < slot_hist.size(); ++i)
    if (slot_hist[i] > 0)
      std::printf(" %zu:%d", i, slot_hist[i]);
  std::printf("\n");

  std::printf("\nplacement: grid %dx%d, wirelength %.0f, cost %.2f\n",
              r.placement.placement.grid.width,
              r.placement.placement.grid.height, r.placement.wirelength,
              r.placement.cost);
  std::printf("routing: %zu nets, wire usage direct/len1/len4/global = "
              "%ld/%ld/%ld/%ld\n",
              r.routing.nets.size(), r.routing.usage.direct,
              r.routing.usage.len1, r.routing.usage.len4,
              r.routing.usage.global);
  std::printf("timing: critical cycle %d of %zu, folding cycle %.3f ns, "
              "delay %.2f ns\n",
              r.timing.critical_cycle, r.timing.cycle_period_ps.size(),
              r.folding_cycle_ns, r.delay_ns);
  std::printf("bitmap: %d configs, %zu NRAM bits (%.1f KB)\n",
              r.bitmap.num_cycles, r.bitmap.total_bits,
              static_cast<double>(r.bitmap.total_bits) / 8192.0);
  std::printf("critical path (cycle %d):\n", r.timing.critical_cycle);
  for (const PathElement& e : r.timing.critical_path) {
    std::printf("  %-28s arrival %7.1f ps\n",
                d.net.node(e.node).name.c_str(), e.arrival_ps);
  }
  return 0;
}
