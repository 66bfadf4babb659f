#include "flow/explore.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace nanomap {
namespace {

// One point of the level x fabric candidate space, in fixed order.
struct CandidatePoint {
  int index = 0;
  int level = 0;
  int variant = 0;
  std::string label;
  ArchParams arch;
};

std::string level_label(int level) {
  return level == 0 ? "no-fold" : "L" + std::to_string(level);
}

// Candidate enumeration: level-major, the base arch before every fabric
// variant, so the explorer degenerates to exactly the serial search's
// level order when no variants are given.
std::vector<CandidatePoint> enumerate_candidates(
    const CircuitParams& params, const FlowOptions& flow,
    const ExploreOptions& explore) {
  std::vector<int> levels = explore.levels.empty()
                                ? candidate_folding_levels(params, flow)
                                : explore.levels;
  std::vector<CandidatePoint> cands;
  for (int level : levels) {
    for (int v = 0; v <= static_cast<int>(explore.variants.size()); ++v) {
      CandidatePoint c;
      c.index = static_cast<int>(cands.size());
      c.level = level;
      c.variant = v;
      c.arch = v == 0 ? flow.arch
                      : explore.variants[static_cast<std::size_t>(v - 1)].arch;
      c.label = level_label(level);
      if (v > 0) {
        const std::string& suffix =
            explore.variants[static_cast<std::size_t>(v - 1)].label;
        c.label += "/" + (suffix.empty() ? "v" + std::to_string(v) : suffix);
      }
      cands.push_back(std::move(c));
    }
  }
  return cands;
}

// Winner selection over *measured* results, per the user objective.
// Every tie breaks toward the lowest candidate index (the loop only
// replaces `best` on strict improvement).
int select_winner(Objective objective,
                  const std::vector<FlowResult>& results) {
  int best = -1;
  for (int i = 0; i < static_cast<int>(results.size()); ++i) {
    const FlowResult& r = results[static_cast<std::size_t>(i)];
    if (!r.feasible) continue;
    if (best < 0) {
      best = i;
      if (objective == Objective::kMeetBoth) return best;  // first feasible
      continue;
    }
    const FlowResult& b = results[static_cast<std::size_t>(best)];
    switch (objective) {
      case Objective::kAreaDelayProduct:
        if (r.area_delay_product() < b.area_delay_product()) best = i;
        break;
      case Objective::kMinDelay:
        if (r.delay_ns < b.delay_ns) best = i;
        break;
      case Objective::kMinArea:
        if (r.num_les < b.num_les ||
            (r.num_les == b.num_les && r.delay_ns < b.delay_ns))
          best = i;
        break;
      case Objective::kMeetBoth:
        break;  // unreachable (returned above)
    }
  }
  return best;
}

// Non-dominated feasible candidates over (#LEs, delay, folding cycles),
// all minimized. An exact-duplicate triple keeps only its lowest index.
std::vector<int> pareto_front(const std::vector<FlowResult>& results) {
  std::vector<int> front;
  const int n = static_cast<int>(results.size());
  for (int i = 0; i < n; ++i) {
    const FlowResult& a = results[static_cast<std::size_t>(i)];
    if (!a.feasible) continue;
    bool dropped = false;
    for (int j = 0; j < n && !dropped; ++j) {
      if (j == i) continue;
      const FlowResult& b = results[static_cast<std::size_t>(j)];
      if (!b.feasible) continue;
      const bool le = b.num_les <= a.num_les && b.delay_ns <= a.delay_ns &&
                      b.clustered.num_cycles <= a.clustered.num_cycles;
      if (!le) continue;
      const bool strict = b.num_les < a.num_les || b.delay_ns < a.delay_ns ||
                          b.clustered.num_cycles < a.clustered.num_cycles;
      if (strict || j < i) dropped = true;  // dominated, or duplicate of j
    }
    if (!dropped) front.push_back(i);
  }
  return front;
}

}  // namespace

ExploreResult run_nanomap_explore(const Design& design,
                                  const FlowOptions& flow,
                                  const ExploreOptions& explore) {
  // Option problems throw (the run_nanomap contract); validating every
  // variant's arch here means no candidate job can die on kInput later.
  validate_flow_options(flow);
  for (const FabricVariant& v : explore.variants) {
    FlowOptions probe = flow;
    probe.arch = v.arch;
    validate_flow_options(probe);
  }
  for (int level : explore.levels)
    if (level < 0)
      throw InputError("invalid explore options: levels must be >= 0");
  if (explore.fault_candidate < -1)
    throw InputError(
        "invalid explore options: fault_candidate must be >= -1");

  const CircuitParams params = extract_circuit_params(design.net);
  const std::vector<CandidatePoint> cands =
      enumerate_candidates(params, flow, explore);
  const int num_cands = static_cast<int>(cands.size());

  const int total_threads =
      flow.threads > 0 ? flow.threads : ThreadPool::hardware_threads();
  const PoolSlice slice = slice_pool(total_threads, num_cands);

  ExploreResult out;
  out.results.resize(cands.size());
  out.explore.candidates = static_cast<int>(cands.size());
  out.explore.outcomes.resize(cands.size());

  // The sweep records into the caller's collector, or a private one when
  // asked to trace and none is bound (the run_nanomap rule). Each
  // candidate records into its own collector; after the pool joins,
  // their counters and values (not their spans) fold into the sweep's in
  // candidate order.
  TraceCollector own;
  TraceCollector* collector = active_trace_collector();
  if (collector == nullptr && flow.collect_trace) collector = &own;
  TraceScope bind(collector);
  std::vector<TraceCollector> cand_traces(collector != nullptr ? cands.size()
                                                               : 0);
  const auto t0 = std::chrono::steady_clock::now();
  {
    NM_TRACE_SPAN("explore");

    // One cold job per candidate; every write lands in that candidate's
    // own slots, so candidates are index-private and safe as pool jobs.
    ThreadPool pool(slice.jobs);
    pool.parallel_for(num_cands, [&](int idx) {
      const CandidatePoint& c = cands[static_cast<std::size_t>(idx)];
      TraceScope cand_bind(collector != nullptr
                               ? &cand_traces[static_cast<std::size_t>(idx)]
                               : nullptr);
      NM_TRACE_COUNT("explore.candidates", 1);

      FlowOptions job = flow;
      job.arch = c.arch;
      job.forced_folding_level = c.level;
      job.collect_trace = false;  // the sweep's report carries the trace
      job.threads = slice.threads_per_job;
      if (explore.fault_candidate >= 0 && explore.fault_candidate != c.index)
        job.fault_plan.clear();

      FlowResult& r = out.results[static_cast<std::size_t>(idx)];
      r = run_nanomap(design, job);

      ExploreCandidateOutcome& o =
          out.explore.outcomes[static_cast<std::size_t>(idx)];
      o.index = c.index;
      o.level = c.level;
      o.variant = c.variant;
      o.label = c.label;
      o.feasible = r.feasible;
      o.error_kind = flow_error_kind_name(r.error_kind);
      o.num_les = r.num_les;
      o.num_cycles = r.clustered.num_cycles;
      o.delay_ns = r.delay_ns;
      o.area_delay_product = r.area_delay_product();
      o.cpu_seconds = r.cpu_seconds;
    });
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const TraceCollector& t : cand_traces) collector->absorb(t);

  // --- deterministic fold: winner, Pareto front, section totals ----------
  out.winner_index = select_winner(flow.objective, out.results);
  out.feasible = out.winner_index >= 0;
  if (out.feasible) {
    out.winner = out.results[static_cast<std::size_t>(out.winner_index)];
  } else {
    // Synthesize a displayable infeasible result: the flow's dominant
    // failure kind across the sweep (every candidate is infeasible here),
    // every candidate's trail merged in index order.
    std::vector<FlowErrorKind> kinds;
    for (const FlowResult& r : out.results) kinds.push_back(r.error_kind);
    out.winner.feasible = false;
    out.winner.params = params;
    out.winner.error_kind = dominant_error_kind(kinds);
    out.winner.levels_tried = static_cast<int>(cands.size());
    out.winner.message = "no feasible candidate in the explored space (" +
                         std::to_string(cands.size()) + " tried)";
    for (const FlowResult& r : out.results)
      for (const FlowEvent& e : r.diagnostics.events)
        out.winner.diagnostics.add(e);
  }

  out.explore.winner_index = out.winner_index;
  out.explore.wall_seconds = out.wall_seconds;
  out.explore.pareto = pareto_front(out.results);
  for (int idx : out.explore.pareto)
    out.explore.outcomes[static_cast<std::size_t>(idx)].on_pareto_front =
        true;
  for (const ExploreCandidateOutcome& o : out.explore.outcomes)
    if (o.feasible) ++out.explore.feasible_candidates;
  if (out.winner_index >= 0)
    out.explore.outcomes[static_cast<std::size_t>(out.winner_index)].winner =
        true;

  // --- report: winner-based, with the sweep's trail and explore section --
  out.report = build_run_report(
      flow, out.winner,
      flow.collect_trace ? collector->snapshot() : TraceSnapshot{});
  out.report.levels_tried = out.explore.candidates;
  out.report.cpu_seconds = out.wall_seconds;
  out.report.events.clear();
  for (const FlowResult& r : out.results)
    out.report.events.insert(out.report.events.end(),
                             r.diagnostics.events.begin(),
                             r.diagnostics.events.end());
  out.report.explore = out.explore;
  return out;
}

}  // namespace nanomap
