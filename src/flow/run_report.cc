// RunReport assembly and serialization (docs/FORMATS.md, "Run report").
//
// The JSON layout is the contract: tests/report_test.cc parses the output
// with util/json.h and checks every field below, and the CI docs job
// uploads one report as a build artifact. Bump RunReport::kSchemaVersion
// when a field changes meaning or disappears; adding fields is
// backward-compatible and needs no bump.

#include "flow/nanomap_flow.h"

#include "util/json.h"

namespace nanomap {

RunReport build_run_report(const FlowOptions& options,
                           const FlowResult& result,
                           const TraceSnapshot& trace) {
  RunReport r;
  r.objective = objective_name(options.objective);
  r.seed = options.seed;
  r.threads = options.threads;
  r.trace_enabled = options.collect_trace;

  r.feasible = result.feasible;
  r.error_kind = flow_error_kind_name(result.error_kind);
  r.levels_tried = result.levels_tried;
  r.cpu_seconds = result.cpu_seconds;

  r.num_planes = result.params.num_plane;
  r.total_luts = result.params.total_luts;
  r.total_flipflops = result.params.total_flipflops;
  r.depth_max = result.params.depth_max;

  r.folding_level = result.folding.level;
  r.stages_per_plane = result.folding.stages_per_plane;
  r.num_cycles = result.clustered.num_cycles;
  r.num_les = result.num_les;
  r.num_smbs = result.num_smbs;
  r.area_um2 = result.area_um2;
  r.peak_ffs = result.peak_ffs;
  r.delay_ns = result.delay_ns;
  r.folding_cycle_ns = result.folding_cycle_ns;
  r.estimated_delay_ns = result.estimated_delay_ns;
  r.area_delay_product = result.area_delay_product();
  r.bitmap_bits = static_cast<long>(result.bitmap.total_bits);
  r.router_iterations = result.routing.worst_iterations;

  r.events = result.diagnostics.events;
  r.stages = trace.aggregate_spans();
  r.counters = trace.counters;
  r.values = trace.values;
  return r;
}

std::string RunReport::to_json(bool include_timings, bool compact) const {
  JsonWriter w(compact);
  w.begin_object();
  w.field("version", version);

  w.key("run");
  w.begin_object();
  w.field("objective", objective);
  w.field("seed", static_cast<unsigned long long>(seed));
  w.field("threads", threads);
  w.field("trace_enabled", trace_enabled);
  w.end();

  w.key("outcome");
  w.begin_object();
  w.field("feasible", feasible);
  w.field("error_kind", error_kind);
  w.field("levels_tried", levels_tried);
  w.field("cpu_seconds", include_timings ? cpu_seconds : 0.0);
  w.end();

  w.key("circuit");
  w.begin_object();
  w.field("num_planes", num_planes);
  w.field("total_luts", total_luts);
  w.field("total_flipflops", total_flipflops);
  w.field("depth_max", depth_max);
  w.end();

  w.key("result");
  w.begin_object();
  w.field("folding_level", folding_level);
  w.field("stages_per_plane", stages_per_plane);
  w.field("num_cycles", num_cycles);
  w.field("num_les", num_les);
  w.field("num_smbs", num_smbs);
  w.field("area_um2", area_um2);
  w.field("peak_ffs", peak_ffs);
  w.field("delay_ns", delay_ns);
  w.field("folding_cycle_ns", folding_cycle_ns);
  w.field("estimated_delay_ns", estimated_delay_ns);
  w.field("area_delay_product", area_delay_product);
  w.field("bitmap_bits", bitmap_bits);
  w.field("router_iterations", router_iterations);
  w.end();

  w.key("events");
  w.begin_array();
  for (const FlowEvent& e : events) {
    w.begin_object();
    w.field("stage", e.stage);
    w.field("level", e.level);
    w.field("attempt", e.attempt);
    w.field("kind", flow_error_kind_name(e.kind));
    w.field("action", e.action);
    w.field("detail", e.detail);
    w.end();
  }
  w.end();

  w.key("stages");
  w.begin_array();
  for (const TraceSpan& s : stages) {
    w.begin_object();
    w.field("path", s.name);
    w.field("calls", s.calls);
    w.field("wall_ms", include_timings ? s.wall_ms : 0.0);
    w.end();
  }
  w.end();

  w.key("counters");
  w.begin_array();
  for (const TraceCounterRow& c : counters) {
    w.begin_object();
    w.field("site", c.site);
    w.field("value", c.value);
    w.end();
  }
  w.end();

  w.key("values");
  w.begin_array();
  for (const TraceValueRow& v : values) {
    w.begin_object();
    w.field("site", v.site);
    w.field("count", v.count);
    w.field("sum", v.sum);
    w.field("min", v.min);
    w.field("max", v.max);
    w.end();
  }
  w.end();

  // Present only on reports from run_nanomap_explore. Independently
  // versioned (see ExploreReport); adding the section did not bump the
  // RunReport schema.
  if (explore) {
    w.key("explore");
    w.begin_object();
    w.field("version", explore->version);
    w.field("candidates", explore->candidates);
    w.field("feasible_candidates", explore->feasible_candidates);
    w.field("winner_index", explore->winner_index);
    w.field("wall_seconds", include_timings ? explore->wall_seconds : 0.0);

    w.key("outcomes");
    w.begin_array();
    for (const ExploreCandidateOutcome& o : explore->outcomes) {
      w.begin_object();
      w.field("index", o.index);
      w.field("level", o.level);
      w.field("variant", o.variant);
      w.field("label", o.label);
      w.field("feasible", o.feasible);
      w.field("error_kind", o.error_kind);
      w.field("num_les", o.num_les);
      w.field("num_cycles", o.num_cycles);
      w.field("delay_ns", o.delay_ns);
      w.field("area_delay_product", o.area_delay_product);
      w.field("on_pareto_front", o.on_pareto_front);
      w.field("winner", o.winner);
      w.field("cpu_seconds", include_timings ? o.cpu_seconds : 0.0);
      w.end();
    }
    w.end();

    w.key("pareto");
    w.begin_array();
    for (int idx : explore->pareto) w.value(idx);
    w.end();

    w.end();
  }

  w.end();
  return w.str();
}

}  // namespace nanomap
