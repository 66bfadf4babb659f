// NanoMap: the integrated design optimization flow (paper §4, Fig. 2).
//
// Given an elaborated Design, the flow
//   1. extracts the circuit parameters (planes, LUT counts, depths),
//   2. searches folding levels per the user objective, seeding the search
//      with Eqs. 1-4 and evaluating each candidate with FDS + temporal
//      clustering (the authoritative area check, flow step 8),
//   3. runs temporal placement (two-step SA with routability/delay screen),
//      falling back to the next folding level if the screen or the router
//      fails (steps 13/14 -> step 2),
//   4. routes every folding cycle with PathFinder, runs STA, and emits the
//      per-cycle configuration bitmap.
//
// Objectives mirror the paper's experiments: area-delay-product
// minimization (Table 1), delay minimization under an optional area
// constraint, area minimization under an optional delay constraint, and
// meeting a joint area+delay constraint pair (Table 2).
#pragma once

#include <optional>
#include <string>

#include "util/trace.h"

#include "bitstream/bitmap.h"
#include "core/estimate.h"
#include "core/fds.h"
#include "core/folding.h"
#include "core/temporal_cluster.h"
#include "place/placement.h"
#include "route/pathfinder.h"
#include "route/sta.h"

namespace nanomap {

enum class Objective {
  kAreaDelayProduct,  // minimize #LEs x delay
  kMinDelay,          // minimize delay (optional area constraint)
  kMinArea,           // minimize #LEs (optional delay constraint)
  kMeetBoth,          // any solution meeting both constraints
};

const char* objective_name(Objective objective);

// Typed failure taxonomy (DESIGN.md §5e). `message` stays the free-text
// summary; error_kind/diagnostics carry the machine-readable trail.
enum class FlowErrorKind {
  kNone,                  // feasible result
  kInput,                 // malformed input / options (InputError)
  kInfeasibleConstraint,  // no folding level satisfies the constraints
  kPlacementScreen,       // routability screen rejected the placement
  kRoutingCongestion,     // PathFinder left overused nodes at every rung
  kDefectInfeasible,      // circuit cannot fit the surviving fabric
                          // (defect matching failed at every level)
  kResourceExhausted,     // std::bad_alloc (or injected equivalent)
  kInternal,              // CheckError — an invariant was violated
};

const char* flow_error_kind_name(FlowErrorKind kind);

// The most actionable failure among `kinds` — one precedence for the
// flow's trail and the explorer's sweep alike: internal errors beat
// resource exhaustion beat bad input beat defect infeasibility beat
// routing congestion beat the placement screen beat plain constraint
// infeasibility. kNone entries never rank; with nothing ranked the
// answer is kInfeasibleConstraint.
FlowErrorKind dominant_error_kind(const std::vector<FlowErrorKind>& kinds);

// One retry/escalation/fallback event on the recovery ladder. The trail
// of these is the authoritative record of what the flow tried and why;
// the free-text `message` is rendered from the same entries.
struct FlowEvent {
  std::string stage;   // "schedule", "cluster", "place", "route", ...
  int level = -1;      // folding level (-1: not level-specific)
  int attempt = 0;     // placement attempt (0 = caller's seed, 1.. =
                       // reseeds); a route event names its rung in detail
  FlowErrorKind kind = FlowErrorKind::kNone;
  std::string action;  // "error", "retry", "escalate", "recovered",
                       // "fallback", "degrade", "infeasible"
  std::string detail;  // parameters tried / failure reason
};

struct FlowDiagnostics {
  std::vector<FlowEvent> events;

  void add(FlowEvent event) { events.push_back(std::move(event)); }
  bool empty() const { return events.empty(); }

  // Human-readable trail, one event per line (the CLI's
  // --explain-failure output).
  std::string to_string() const;
};

// One candidate evaluated by the design-space explorer
// (flow/explore.h): which point of the level x fabric space it was, what
// came out. Serialized inside the RunReport's `explore` section
// (docs/FORMATS.md).
struct ExploreCandidateOutcome {
  int index = 0;            // position in the fixed candidate order
  int level = 0;            // folding level (0 = no folding)
  int variant = 0;          // fabric variant index (0 = the base arch)
  std::string label;        // human label, e.g. "L2" or "L1/x1.25"
  bool feasible = false;
  std::string error_kind;   // flow_error_kind_name of the candidate result
  int num_les = 0;
  int num_cycles = 0;
  double delay_ns = 0.0;
  double area_delay_product = 0.0;
  bool on_pareto_front = false;
  bool winner = false;
  double cpu_seconds = 0.0;  // wall-clock; masked by to_json(false)
};

// The explorer's section of the run report. Versioned independently of
// the enclosing RunReport schema (adding this section is a
// backward-compatible RunReport change, so RunReport's kSchemaVersion
// stays 1).
struct ExploreReport {
  static constexpr int kSchemaVersion = 2;

  int version = kSchemaVersion;
  int candidates = 0;
  int feasible_candidates = 0;
  int winner_index = -1;     // -1: no feasible candidate
  double wall_seconds = 0.0;  // whole-explore wall clock; masked
  std::vector<ExploreCandidateOutcome> outcomes;  // fixed candidate order
  std::vector<int> pareto;   // Pareto-front candidate indices, ascending
};

// Versioned, machine-readable summary of one run_nanomap call — the
// payload behind the CLI's --report=json flag and the programmatic
// FlowResult::report. The JSON schema (version 1) is documented in
// docs/FORMATS.md and validated structurally by tests/report_test.cc.
//
// The stages/counters/values sections are filled from the trace
// collector when FlowOptions::collect_trace was set and are empty
// otherwise; everything else is always populated. With
// include_timings=false, to_json() masks the wall-clock fields
// (cpu_seconds and every stage's wall_ms print as 0) so the document is
// byte-identical run-to-run for a fixed (input, seed) at any --threads.
struct RunReport {
  static constexpr int kSchemaVersion = 1;

  int version = kSchemaVersion;

  // Run identity.
  std::string objective;
  std::uint64_t seed = 0;
  int threads = 0;          // as requested (0 = hardware concurrency)
  bool trace_enabled = false;

  // Outcome.
  bool feasible = false;
  std::string error_kind;   // flow_error_kind_name(FlowResult::error_kind)
  int levels_tried = 0;
  double cpu_seconds = 0.0;  // wall-clock; masked by to_json(false)

  // Circuit parameters (always known, even for infeasible runs).
  int num_planes = 0;
  int total_luts = 0;
  int total_flipflops = 0;
  int depth_max = 0;

  // Result summary (zeros when infeasible).
  int folding_level = 0;
  int stages_per_plane = 1;
  int num_cycles = 0;
  int num_les = 0;
  int num_smbs = 0;
  double area_um2 = 0.0;
  int peak_ffs = 0;
  double delay_ns = 0.0;
  double folding_cycle_ns = 0.0;
  double estimated_delay_ns = 0.0;
  double area_delay_product = 0.0;
  long bitmap_bits = 0;
  int router_iterations = 0;  // worst PathFinder iteration count

  // The typed diagnostic trail (same entries as FlowResult::diagnostics).
  std::vector<FlowEvent> events;

  // Per-stage timing table (TraceSnapshot::aggregate_spans(): slash-
  // joined paths, call counts, accumulated wall ms) and the counter /
  // value-histogram tables, sorted by site name.
  std::vector<TraceSpan> stages;
  std::vector<TraceCounterRow> counters;
  std::vector<TraceValueRow> values;

  // Present only on reports produced by run_nanomap_explore
  // (flow/explore.h): the per-candidate outcome table and Pareto front.
  std::optional<ExploreReport> explore;

  // compact = true emits the same document as one single line (no
  // newlines or indentation) — the form the JSON-lines server embeds in
  // its response lines (docs/SERVING.md). Both forms parse identically.
  std::string to_json(bool include_timings = true,
                      bool compact = false) const;
};

// Factory hook for RR graphs, the flow-as-a-service shared-cache seam
// (src/serve/cache.h implements it). make() must return a graph equal to
// RrGraph(grid, arch) — same nodes, edges, delays, costs and capacities —
// that the flow owns outright, so a caching provider hands out copies of
// an immutable prototype. Result-neutral by construction.
// Implementations must be thread-safe — concurrent jobs share one
// provider.
class RrGraphProvider {
 public:
  virtual ~RrGraphProvider() = default;
  virtual RrGraph make(const GridSize& grid, const ArchParams& arch) = 0;
};

struct FlowOptions {
  ArchParams arch = ArchParams::paper_instance();
  Objective objective = Objective::kAreaDelayProduct;
  int area_constraint_le = 0;       // 0 = unconstrained
  double delay_constraint_ns = 0.0; // 0 = unconstrained
  // Multi-plane resource sharing (§4.1). false models pipelined designs
  // whose planes must stay resident simultaneously.
  bool planes_share = true;
  // -1 = search; 0 = force no-folding; >0 = force level-p folding.
  int forced_folding_level = -1;
  bool run_physical = true;  // placement + routing + STA + bitmap
  SchedulerKind scheduler = SchedulerKind::kFds;  // kAsap: ablation shortcut
  bool refine_schedule = true;  // post-scheduling rebalancing sweeps
  std::uint64_t seed = 42;
  // Worker threads for the multi-seed placement restarts and for routing
  // the non-empty folding cycles of each route_design call concurrently.
  // Within one restart placement is sequential, and so is the
  // negotiation within one cycle. 0 = hardware concurrency. The thread
  // count only
  // changes wall-clock time: the same (input, seed) produces
  // byte-identical placement, routing, and bitmap at any setting (see
  // tests/determinism_test.cc), and threads = 1 runs the serial code
  // paths exactly. How much parallel placement *work* exists is
  // controlled separately by placement.restarts.
  int threads = 0;
  PlacementOptions placement;
  RouterOptions router;
  // Deterministic fault injection: "site:N[:check|input|alloc]" arms a
  // util/fault.h FaultScope on the calling thread for the duration of
  // this run (empty = off). The CLI exposes it as --fault / the NM_FAULT
  // environment variable.
  std::string fault_plan;
  // Collect per-stage spans / counters / value histograms (util/trace.h)
  // for this run and fill FlowResult::report's stages/counters/values
  // sections. Off (the default) costs one thread-local read per site and
  // on it never changes a result byte (tests/trace_test.cc). The CLI
  // exposes it as --trace and --report=json.
  bool collect_trace = false;
  // Shared RR-graph source (flow-as-a-service). When set, every RR graph
  // the routing ladder builds comes from provider->make() instead of a
  // direct construction — the serving layer points this at its
  // arch-keyed prototype cache so concurrent jobs over the same fabric
  // skip repeated graph builds. Null (the default) builds directly.
  // Never changes results (see RrGraphProvider). Not owned.
  RrGraphProvider* rr_provider = nullptr;
};

// Rejects out-of-range options (negative threads, max_iterations < 1,
// negative constraints, ...) with an InputError whose
// message names the offending field. run_nanomap calls this before doing
// any work; callers wanting exit-code 2 semantics can call it themselves.
void validate_flow_options(const FlowOptions& options);

struct FlowResult {
  bool feasible = false;
  std::string message;  // why infeasible / which fallbacks happened
  // Dominant failure kind (kNone when feasible) and the full typed trail
  // of every retry/escalation/fallback the flow performed. Never thrown
  // away: stage exceptions (CheckError, InputError, bad_alloc) are
  // converted into trail entries and a clean feasible=false result.
  FlowErrorKind error_kind = FlowErrorKind::kNone;
  FlowDiagnostics diagnostics;

  CircuitParams params;
  FoldingConfig folding;

  // Area.
  int num_les = 0;   // paper's area metric (post-clustering)
  int num_smbs = 0;
  double area_um2 = 0.0;
  int peak_ffs = 0;

  // Delay.
  double delay_ns = 0.0;          // STA when physical ran, else estimate
  double folding_cycle_ns = 0.0;
  double estimated_delay_ns = 0.0;

  // Stage-by-stage usage (flattened per plane; for reports and Fig. 1).
  std::vector<FdsResult> plane_schedules;

  DesignSchedule schedule;
  ClusteredDesign clustered;
  PlacementResult placement;
  RoutingResult routing;
  TimingReport timing;
  ConfigBitmap bitmap;

  // Interconnect and router options of the winning routing rung (the arch
  // may be a widened copy of FlowOptions::arch). Together with clustered
  // and placement these are everything needed to rebuild the RR graph and
  // re-route the result — tests byte-compare that replay against the
  // reference router.
  ArchParams routed_arch;
  RouterOptions routed_router;

  int levels_tried = 0;
  double cpu_seconds = 0.0;

  // Machine-readable run summary (--report=json). Always populated;
  // its stages/counters/values sections are non-empty only when the run
  // collected a trace (FlowOptions::collect_trace).
  RunReport report;

  double area_delay_product() const {
    return static_cast<double>(num_les) * delay_ns;
  }
};

// The NanoMap flow (§4, Fig. 2). Reentrant: every piece of per-run state
// is the call's own or thread-local, so any number of runs may execute
// concurrently on different threads (tests/flow_reentrancy_test.cc).
//  * options.fault_plan arms a FaultScope on the calling thread.
//  * Trace records land in the collector the caller bound with a
//    TraceScope; when none is bound and options.collect_trace is set,
//    the run binds a private one. With collect_trace set, the report
//    snapshots whichever collector recorded.
FlowResult run_nanomap(const Design& design, const FlowOptions& options);

// The fixed exit-code taxonomy shared by the nanomap CLI and the
// nanomap-server response lines (README "Exit codes"): 0 feasible,
// 1 clean infeasible, 2 input error, 3 internal error / resource
// exhaustion.
int exit_code_for(const FlowResult& result);

// The folding levels run_nanomap's serial search may try for this circuit
// under these options, in candidate order. Under the AT-product objective
// the search attempts them in order of measured #LEs x estimated delay
// instead (ties in candidate order), scheduling only the levels whose
// lower bound can still win (DESIGN.md §5l). Exposed so the design-space
// explorer (flow/explore.h) and the ablation bench enumerate exactly the
// same candidate space as the flow itself.
std::vector<int> candidate_folding_levels(const CircuitParams& params,
                                          const FlowOptions& options);

// Assembles the report from a finished result and a trace snapshot
// (pass a default-constructed snapshot when tracing was off).
// run_nanomap does this itself; exposed for tests and tools.
RunReport build_run_report(const FlowOptions& options,
                           const FlowResult& result,
                           const TraceSnapshot& trace);

// One-line summary for reports.
std::string summarize(const FlowResult& result);

}  // namespace nanomap
