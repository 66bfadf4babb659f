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

// Chains of candidates that may legally share warm-start state: same
// folding level, arch equal in everything but the channel track counts.
// Chain members donate the schedule and the RR graph + cycle cache (under
// the strict identity rules in nanomap_flow.h). Grouping is a pure function of the candidate list (first-match in index
// order), so chain shapes — and with them every warm-start decision — are
// identical in serial and parallel mode. With warm starts off every
// candidate is its own chain (maximum parallelism, all cold).
std::vector<std::vector<int>> group_into_chains(
    const std::vector<CandidatePoint>& cands, bool warm_start) {
  std::vector<std::vector<int>> chains;
  for (const CandidatePoint& c : cands) {
    bool placed = false;
    if (warm_start) {
      for (std::vector<int>& chain : chains) {
        const CandidatePoint& head =
            cands[static_cast<std::size_t>(chain.front())];
        if (head.level == c.level &&
            arch_equal_ignoring_channel_tracks(head.arch, c.arch)) {
          chain.push_back(c.index);
          placed = true;
          break;
        }
      }
    }
    if (!placed) chains.push_back({c.index});
  }
  return chains;
}

// The engine's failure-kind precedence, applied across candidates: the
// sweep's dominant error is the most actionable one any candidate hit.
FlowErrorKind dominant_error_kind(const std::vector<FlowResult>& results) {
  static const FlowErrorKind precedence[] = {
      FlowErrorKind::kInternal,        FlowErrorKind::kResourceExhausted,
      FlowErrorKind::kInput,           FlowErrorKind::kRoutingCongestion,
      FlowErrorKind::kPlacementScreen, FlowErrorKind::kInfeasibleConstraint,
  };
  for (FlowErrorKind kind : precedence)
    for (const FlowResult& r : results)
      if (!r.feasible && r.error_kind == kind) return kind;
  return FlowErrorKind::kInfeasibleConstraint;
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

const char* explore_mode_name(ExploreMode mode) {
  switch (mode) {
    case ExploreMode::kSerial: return "serial";
    case ExploreMode::kParallel: return "parallel";
  }
  return "?";
}

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
  const std::vector<std::vector<int>> chains =
      group_into_chains(cands, explore.warm_start);

  const int total_threads =
      flow.threads > 0 ? flow.threads : ThreadPool::hardware_threads();
  const PoolSlice slice =
      slice_pool(total_threads, static_cast<int>(chains.size()));
  const bool parallel =
      explore.mode == ExploreMode::kParallel && slice.jobs > 1;

  ExploreResult out;
  out.results.resize(cands.size());
  out.explore.mode = explore_mode_name(explore.mode);
  out.explore.candidates = static_cast<int>(cands.size());
  out.explore.outcomes.resize(cands.size());

  // The explorer owns the sweep's single collection window; candidate
  // jobs record counters/values into it (spans are muted per job).
  TraceScope trace(flow.collect_trace);
  const auto t0 = std::chrono::steady_clock::now();
  {
    NM_TRACE_SPAN("explore");

    // One chain = one sequential warm-start lineage; every write below
    // lands in this chain's candidate slots only, so chains are
    // index-private and safe to run as pool jobs.
    auto run_chain = [&](int g) {
      FlowWarmStart warm;
      for (int idx : chains[static_cast<std::size_t>(g)]) {
        const CandidatePoint& c = cands[static_cast<std::size_t>(idx)];
        NM_TRACE_COUNT("explore.candidates", 1);

        FlowOptions job = flow;
        job.arch = c.arch;
        job.forced_folding_level = c.level;
        job.collect_trace = false;  // the sweep's TraceScope is ours
        job.threads = parallel ? slice.threads_per_job : flow.threads;
        if (explore.fault_candidate >= 0 &&
            explore.fault_candidate != c.index)
          job.fault_plan.clear();

        FlowResult& r = out.results[static_cast<std::size_t>(idx)];
        r = run_nanomap_job(design, job,
                            explore.warm_start ? &warm : nullptr);

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
        o.warm_schedule = warm.stats.schedule_reused;
        o.warm_route_state = warm.stats.route_state_adopted;
        o.cpu_seconds = r.cpu_seconds;
        if (o.warm_schedule || o.warm_route_state)
          NM_TRACE_COUNT("explore.warm_starts", 1);
      }
    };

    if (parallel) {
      ThreadPool pool(slice.jobs);
      pool.parallel_for(static_cast<int>(chains.size()), run_chain);
    } else {
      for (int g = 0; g < static_cast<int>(chains.size()); ++g)
        run_chain(g);
    }
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // --- deterministic fold: winner, Pareto front, section totals ----------
  out.winner_index = select_winner(flow.objective, out.results);
  out.feasible = out.winner_index >= 0;
  if (out.feasible) {
    out.winner = out.results[static_cast<std::size_t>(out.winner_index)];
  } else {
    // Synthesize a displayable infeasible result: dominant failure kind
    // across the sweep, every candidate's trail merged in index order.
    out.winner.feasible = false;
    out.winner.params = params;
    out.winner.error_kind = dominant_error_kind(out.results);
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
  for (ExploreCandidateOutcome& o : out.explore.outcomes) {
    if (o.feasible) ++out.explore.feasible_candidates;
    if (o.warm_schedule || o.warm_route_state) ++out.explore.warm_starts;
  }
  if (out.winner_index >= 0)
    out.explore.outcomes[static_cast<std::size_t>(out.winner_index)].winner =
        true;

  // --- report: winner-based, with the sweep's trail and explore section --
  out.report = build_run_report(flow, out.winner,
                                flow.collect_trace
                                    ? Trace::instance().snapshot()
                                    : TraceSnapshot{});
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
