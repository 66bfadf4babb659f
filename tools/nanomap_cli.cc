// nanomap — command-line driver for the NanoMap flow.
//
//   nanomap <input> [options]
//
// Inputs (by extension): .nmap (structural netlist), .blif (LUT netlist),
// .bench (ISCAS gate netlist), .vhd/.vhdl (structural VHDL subset), or
// "bench:<name>" for a bundled
// benchmark (ex1, FIR, ex2, c5315, Biquad, Paulin, ASPP4).
//
// Options:
//   --objective at|delay|area|both   optimization objective (default at)
//   --area N          area constraint in LEs
//   --delay NS        delay constraint in ns
//   --level L         force folding level L (0 = no folding)
//   --k N             NRAM configuration sets (0 = unbounded; default 16)
//   --arch FILE       load architecture parameters (key = value file)
//   --defects SPEC    map onto an imperfect fabric (docs/FORMATS.md):
//                     either a defect-map file, or inline seeded rates
//                     "seed=S,le=R,smb=R,wire=R" (any subset of rates).
//                     The flow places/routes around the dead resources;
//                     if the circuit cannot fit the surviving fabric the
//                     run exits 1 with error kind defect-infeasible.
//   --dump-arch       print the resolved architecture parameters and exit
//   --no-share        planes may not share resources (pipelined design)
//   --seed S          random seed for placement/routing
//   --threads N       worker threads (0 = hardware concurrency; never
//                     changes results, only wall-clock time)
//   --restarts N      independent placement restarts (best placement wins)
//   --explore         evaluate ALL candidate folding levels as concurrent
//                     cold flow jobs and pick the winner by the objective
//                     over measured results, instead of the serial
//                     first-feasible search. Byte-identical results at any
//                     --threads; the run report gains an `explore`
//                     section (per-candidate outcomes + Pareto front).
//   --pareto          with --explore (implied): print the Pareto front
//                     over #LEs x delay x folding cycles
//   --out FILE        write the configuration bitmap (binary)
//   --blif-out FILE   write the elaborated LUT netlist as BLIF
//   --sweep           run netlist cleanup (DCE/CSE/constants) first
//   --power           print the power/energy report
//   --report          print per-stage usage and wire statistics
//   --report=json FILE  write the machine-readable run report (schema in
//                     docs/FORMATS.md). Wall-clock fields are zeroed so
//                     the file is byte-deterministic for a fixed seed;
//                     add --trace to include real timings instead.
//   --trace           collect stage spans/counters and pretty-print the
//                     aggregated stage tree (timings, call counts) to
//                     stderr (docs/
//                     OBSERVABILITY.md). Never changes results.
//   --explain-failure print the typed retry/escalation diagnostics trail
//   --fault PLAN      arm deterministic fault injection ("site:N[:kind]",
//                     see util/fault.h; NM_FAULT env var is the fallback)
//   --quiet           only print the one-line summary
//
// Exit codes (documented in README):
//   0  feasible mapping produced
//   1  clean infeasible (constraints / congestion; see --explain-failure)
//   2  input error (bad file, bad option value, bad arch params)
//   3  internal error or resource exhaustion (CheckError / bad_alloc)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "util/fault.h"
#include "util/trace.h"

#include "flow/explore.h"
#include "flow/nanomap_flow.h"
#include "rtl/blif.h"
#include "arch/arch_file.h"
#include "arch/defect.h"
#include "flow/power.h"
#include "netlist/optimize.h"
#include "serve/cache.h"

using namespace nanomap;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <input.{nmap,blif,vhd}|bench:NAME> [--objective "
               "at|delay|area|both] [--area N] [--delay NS] [--level L] "
               "[--k N] [--defects FILE|seed=S,le=R,smb=R,wire=R] "
               "[--no-share] [--seed S] [--threads N] "
               "[--restarts N] "
               "[--explore] [--pareto] [--out FILE] "
               "[--blif-out FILE] [--report] [--report=json FILE] "
               "[--trace] [--explain-failure] "
               "[--fault SITE:N[:KIND]] [--quiet]\n",
               argv0);
  return 2;
}

// Exit-code taxonomy: the flow returns clean results with a typed error
// kind instead of throwing, so the code comes from the shared
// exit_code_for(FlowResult) (flow/nanomap_flow.h) — the same mapping the
// nanomap-server response lines carry. The catch blocks below only see
// input/internal errors raised outside run_nanomap (parsing, file IO,
// option validation).
constexpr int kExitFeasible = 0;
constexpr int kExitInputError = 2;
constexpr int kExitInternalError = 3;

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::string input = argv[1];
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  std::string out_path, blif_out, report_json;
  bool report = false, quiet = false, do_sweep = false, power = false;
  bool explain_failure = false, trace = false;
  bool explore_enabled = false, print_pareto = false;
  ExploreOptions eopts;
  if (const char* env_fault = std::getenv("NM_FAULT"))
    opts.fault_plan = env_fault;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--objective") {
      std::string v = next();
      if (v == "at") opts.objective = Objective::kAreaDelayProduct;
      else if (v == "delay") opts.objective = Objective::kMinDelay;
      else if (v == "area") opts.objective = Objective::kMinArea;
      else if (v == "both") opts.objective = Objective::kMeetBoth;
      else return usage(argv[0]);
    } else if (arg == "--area") {
      opts.area_constraint_le = std::atoi(next().c_str());
    } else if (arg == "--delay") {
      opts.delay_constraint_ns = std::atof(next().c_str());
    } else if (arg == "--level") {
      opts.forced_folding_level = std::atoi(next().c_str());
    } else if (arg == "--k") {
      opts.arch.num_reconf = std::atoi(next().c_str());
    } else if (arg == "--arch") {
      try {
        opts.arch = parse_arch_file(next(), opts.arch);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitInputError;
      }
    } else if (arg == "--defects") {
      std::string v = next();
      try {
        opts.arch.defects = v.find('=') != std::string::npos
                                ? parse_defect_rates(v)
                                : parse_defect_map_file(v);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitInputError;
      }
    } else if (arg == "--dump-arch") {
      std::printf("%s", write_arch(opts.arch).c_str());
      return 0;
    } else if (arg == "--no-share") {
      opts.planes_share = false;
    } else if (arg == "--seed") {
      opts.seed = static_cast<std::uint64_t>(std::atoll(next().c_str()));
    } else if (arg == "--threads") {
      opts.threads = std::atoi(next().c_str());
    } else if (arg == "--restarts") {
      opts.placement.restarts = std::atoi(next().c_str());
    } else if (arg == "--explore") {
      explore_enabled = true;
    } else if (arg == "--pareto") {
      explore_enabled = true;
      print_pareto = true;
    } else if (arg == "--fault") {
      opts.fault_plan = next();
    } else if (arg == "--explain-failure") {
      explain_failure = true;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--blif-out") {
      blif_out = next();
    } else if (arg == "--sweep") {
      do_sweep = true;
    } else if (arg == "--power") {
      power = true;
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--report=json") {
      report_json = next();
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  try {
    Design design = load_design_spec(input);
    if (do_sweep) {
      SweepResult swept = sweep(design.net);
      if (!quiet && swept.stats.total_removed() > 0)
        std::printf("sweep: removed %d dead LUTs, %d dead FFs, merged %d "
                    "duplicates, folded %d constant inputs\n",
                    swept.stats.dead_luts_removed,
                    swept.stats.dead_flipflops_removed,
                    swept.stats.duplicates_merged,
                    swept.stats.constants_folded);
      design.net = std::move(swept.net);
      design.refresh_module_stats();
    }
    if (!quiet) {
      CircuitParams p = extract_circuit_params(design.net);
      std::printf("loaded '%s': %d plane(s), %d LUTs, %d FFs, depth %d\n",
                  design.name.c_str(), p.num_plane, p.total_luts,
                  p.total_flipflops, p.depth_max);
      std::printf("target: %s\n", describe(opts.arch).c_str());
    }
    if (!blif_out.empty()) {
      std::ofstream out(blif_out);
      if (!out) throw InputError("cannot write " + blif_out);
      out << write_blif(design);
      if (!quiet) std::printf("wrote netlist to %s\n", blif_out.c_str());
    }

    opts.collect_trace = trace || !report_json.empty();
    TraceCollector collector;
    TraceScope bind(opts.collect_trace ? &collector : nullptr);
    FlowResult r;
    if (explore_enabled) {
      ExploreResult ex = run_nanomap_explore(design, opts, eopts);
      if (!quiet)
        std::printf("explore: %d candidates, %d feasible, %zu on the "
                    "Pareto front\n",
                    ex.explore.candidates, ex.explore.feasible_candidates,
                    ex.explore.pareto.size());
      if (print_pareto) {
        std::printf("pareto front (#LEs x delay x cycles):\n");
        for (int idx : ex.explore.pareto) {
          const ExploreCandidateOutcome& o =
              ex.explore.outcomes[static_cast<std::size_t>(idx)];
          std::printf("  [%2d] %-12s %5d LEs  %7.2f ns  %3d cycles%s\n",
                      o.index, o.label.c_str(), o.num_les, o.delay_ns,
                      o.num_cycles, o.winner ? "  <- winner" : "");
        }
      }
      r = std::move(ex.winner);
      r.report = std::move(ex.report);  // the explore-aware report
    } else {
      r = run_nanomap(design, opts);
    }
    if (trace)
      std::fprintf(stderr, "%s", collector.snapshot().render().c_str());
    if (!report_json.empty()) {
      std::ofstream out(report_json);
      if (!out) throw InputError("cannot write " + report_json);
      // Timings are masked unless --trace asked for them, so the file is
      // byte-deterministic for a fixed (input, seed) at any --threads.
      out << r.report.to_json(/*include_timings=*/trace);
      if (!quiet)
        std::printf("wrote run report to %s\n", report_json.c_str());
    }
    if (!r.feasible) {
      std::printf("INFEASIBLE [%s]: %s\n",
                  flow_error_kind_name(r.error_kind), r.message.c_str());
      if (explain_failure && !r.diagnostics.empty())
        std::printf("diagnostics trail:\n%s",
                    r.diagnostics.to_string().c_str());
      return exit_code_for(r);
    }
    std::printf("%s\n", summarize(r).c_str());
    if (explain_failure && !r.diagnostics.empty())
      std::printf("diagnostics trail (recovered along the way):\n%s",
                  r.diagnostics.to_string().c_str());

    if (report) {
      std::printf("\nper-stage usage:\n");
      for (std::size_t p = 0; p < r.plane_schedules.size(); ++p) {
        const FdsResult& fr = r.plane_schedules[p];
        for (std::size_t s = 1; s < fr.le_count.size(); ++s)
          std::printf("  plane %zu stage %2zu: %4d LUTs %4d FFs -> %4d LEs\n",
                      p, s, fr.lut_count[s], fr.ff_count[s], fr.le_count[s]);
      }
      std::printf("area: %d LEs, %d SMBs, %.0f um^2\n", r.num_les,
                  r.num_smbs, r.area_um2);
      std::printf("wires: direct %ld, len1 %ld, len4 %ld, global %ld\n",
                  r.routing.usage.direct, r.routing.usage.len1,
                  r.routing.usage.len4, r.routing.usage.global);
      std::printf("timing: folding cycle %.3f ns, delay %.2f ns "
                  "(critical cycle %d)\n",
                  r.folding_cycle_ns, r.delay_ns, r.timing.critical_cycle);
      std::printf("bitmap: %d configs, %zu bits; flow tried %d levels in "
                  "%.2f s\n",
                  r.bitmap.num_cycles, r.bitmap.total_bits, r.levels_tried,
                  r.cpu_seconds);
      std::printf("critical path (cycle %d):\n", r.timing.critical_cycle);
      for (const PathElement& e : r.timing.critical_path) {
        std::printf("  %-24s arrival %7.1f ps\n",
                    design.net.node(e.node).name.c_str(), e.arrival_ps);
      }
    }

    if (power) {
      PowerReport pw =
          estimate_power(design, r.schedule, r.clustered, r.routing,
                         r.bitmap, r.timing, opts.arch);
      std::printf("power: %.1f pJ/pass (logic %.1f + wire %.1f + reconfig "
                  "%.1f), %.2f mW dynamic; config standby: SRAM-equiv "
                  "%.4f mW, NRAM 0 mW\n",
                  pw.energy_per_pass_pj, pw.logic_pj, pw.wire_pj,
                  pw.reconfig_pj, pw.power_mw, pw.config_standby_sram_mw);
    }

    if (!out_path.empty()) {
      std::vector<std::uint8_t> bytes = serialize_bitmap(r.bitmap);
      std::ofstream out(out_path, std::ios::binary);
      if (!out) throw InputError("cannot write " + out_path);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
      if (!quiet)
        std::printf("wrote %zu-byte bitmap to %s\n", bytes.size(),
                    out_path.c_str());
    }
    return kExitFeasible;
  } catch (const InputError& e) {
    std::fprintf(stderr, "input error: %s\n", e.what());
    return kExitInputError;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return kExitInternalError;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitInternalError;
  }
}
