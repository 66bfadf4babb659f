#include "core/fds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/fds_kernel.h"
#include "util/fault.h"
#include "util/trace.h"

namespace nanomap {
namespace {

// Storage-op lifetime endpoints under a given per-node stage function
// (either ASAP or ALAP stages). Returns {begin, end}; end >= begin.
std::pair<int, int> lifetime_under(const StorageOp& op,
                                   const std::vector<int>& stage,
                                   int num_stages) {
  int begin = stage[static_cast<std::size_t>(op.producer)];
  int end = begin;
  for (int c : op.consumers)
    end = std::max(end, stage[static_cast<std::size_t>(c)]);
  if (op.anchored_at_end) end = num_stages;
  return {begin, end};
}

// Adds the Eq. 9/10 probabilistic distribution of one storage op to `dg`.
// The op's source/destination stages are taken from the ASAP/ALAP stage
// vectors (pinned nodes have asap == alap, so fully-scheduled ops
// degenerate to their exact lifetime).
void add_storage_distribution(const StorageOp& op,
                              const std::vector<int>& asap,
                              const std::vector<int>& alap, int num_stages,
                              std::vector<double>* dg) {
  auto [asap_begin, asap_end] = lifetime_under(op, asap, num_stages);
  auto [alap_begin, alap_end] = lifetime_under(op, alap, num_stages);

  const double asap_len = asap_end - asap_begin + 1;
  const double alap_len = alap_end - alap_begin + 1;
  // Eq. 6: union of ASAP and ALAP lifetimes.
  const int max_begin = asap_begin;
  const int max_end = alap_end;
  const double max_len = max_end - max_begin + 1;
  // Eq. 7: intersection (may be empty).
  const int ov_begin = alap_begin;
  const int ov_end = asap_end;
  const double ov_len = std::max(0, ov_end - ov_begin + 1);
  // Eq. 8.
  const double avg_life = (asap_len + alap_len + max_len) / 3.0;

  const double w = static_cast<double>(op.weight);
  for (int j = max_begin; j <= max_end; ++j) {
    double prob;
    if (j >= ov_begin && j <= ov_end) {
      prob = 1.0;  // Eq. 10: storage certainly live here
    } else if (max_len > ov_len) {
      prob = (avg_life - ov_len) / (max_len - ov_len);  // Eq. 9
      prob = std::clamp(prob, 0.0, 1.0);
    } else {
      prob = 1.0;
    }
    (*dg)[static_cast<std::size_t>(j)] += prob * w;
  }
}

}  // namespace

std::vector<StorageOp> build_storage_ops(const PlaneScheduleGraph& graph) {
  std::vector<StorageOp> ops;
  for (const ScheduleNode& sn : graph.nodes) {
    if (sn.num_stored_outputs == 0) continue;
    StorageOp op;
    op.producer = sn.id;
    op.consumers = sn.succs;
    op.anchored_at_end = sn.feeds_flipflop;
    op.weight = sn.num_stored_outputs;
    ops.push_back(std::move(op));
  }
  return ops;
}

DistributionGraphs compute_dgs(const PlaneScheduleGraph& graph,
                               const std::vector<StorageOp>& ops,
                               const std::vector<int>& stage_of,
                               const TimeFrames& frames) {
  const int s = graph.num_stages;
  DistributionGraphs dgs;
  dgs.lut.assign(static_cast<std::size_t>(s) + 1, 0.0);
  dgs.storage.assign(static_cast<std::size_t>(s) + 1, 0.0);

  // Eq. 5: LUT computation DG.
  for (const ScheduleNode& sn : graph.nodes) {
    int pin = stage_of[static_cast<std::size_t>(sn.id)];
    int a = pin > 0 ? pin : frames.asap[static_cast<std::size_t>(sn.id)];
    int b = pin > 0 ? pin : frames.alap[static_cast<std::size_t>(sn.id)];
    double prob = 1.0 / (b - a + 1);
    for (int j = a; j <= b; ++j)
      dgs.lut[static_cast<std::size_t>(j)] += prob * sn.weight;
  }

  // Eqs. 6-11: storage DG. Pinned nodes have asap == alap already (the
  // frame computation clamps to the pin), so we can use frames directly.
  for (const StorageOp& op : ops) {
    add_storage_distribution(op, frames.asap, frames.alap, s, &dgs.storage);
  }
  // Plane registers hold their value through every folding cycle of the
  // plane (paper §3: "plane registers need to exist through all the
  // folding stages").
  for (int j = 1; j <= s; ++j)
    dgs.storage[static_cast<std::size_t>(j)] += graph.num_plane_registers;
  return dgs;
}

void tally_stage_usage(const PlaneScheduleGraph& graph,
                       const std::vector<StorageOp>& ops,
                       const ArchParams& arch,
                       const std::vector<int>& stage_of, FdsResult* result) {
  const int s = graph.num_stages;
  result->lut_count.assign(static_cast<std::size_t>(s) + 1, 0);
  result->ff_count.assign(static_cast<std::size_t>(s) + 1,
                          graph.num_plane_registers);
  result->ff_count[0] = 0;
  result->le_count.assign(static_cast<std::size_t>(s) + 1, 0);

  for (const ScheduleNode& sn : graph.nodes) {
    int st = stage_of[static_cast<std::size_t>(sn.id)];
    NM_CHECK(st >= 1 && st <= s);
    result->lut_count[static_cast<std::size_t>(st)] += sn.weight;
  }
  // Physical occupancy convention: a value is written into its flip-flop
  // at the END of its producing cycle and freed after its last consuming
  // cycle reads it, so it holds a flip-flop during cycles
  // [prod, last_consumption - 1] (same-cycle uses need no storage).
  for (const StorageOp& op : ops) {
    auto [begin, end] = lifetime_under(op, stage_of, s);
    for (int j = begin; j <= end - 1; ++j)
      result->ff_count[static_cast<std::size_t>(j)] += op.weight;
  }
  result->max_le = 0;
  for (int j = 1; j <= s; ++j) {
    int les = std::max(
        result->lut_count[static_cast<std::size_t>(j)],
        (result->ff_count[static_cast<std::size_t>(j)] + arch.ff_per_le - 1) /
            arch.ff_per_le);
    result->le_count[static_cast<std::size_t>(j)] = les;
    result->max_le = std::max(result->max_le, les);
  }
}

namespace {

// Greedy peak-reduction sweeps (FdsOptions::refine), on the incremental
// RefineTally: candidate metrics are integer deltas over the current tally
// instead of a full tally_stage_usage per (node, stage), and the candidate
// window of a node collapses to an O(degree) scan over its already-pinned
// neighbors whenever the schedule is precedence-consistent (always, for
// the schedules the in-tree schedulers emit on feasible graphs). Decisions
// are exactly the ones the from-scratch version made.
void refine_schedule(const PlaneScheduleGraph& graph,
                     const std::vector<StorageOp>& ops,
                     const std::vector<std::vector<int>>& ops_of_node,
                     const ArchParams& arch, const FdsOptions& options,
                     std::vector<int>* stage_of) {
  const int n = static_cast<int>(graph.nodes.size());
  if (n == 0) return;
  RefineTally tally(graph, ops, ops_of_node, arch, *stage_of);
  auto best_metric = tally.metric();

  // Heavier nodes first: moving them shifts the most load.
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&graph](int a, int b) {
    int wa = graph.nodes[static_cast<std::size_t>(a)].weight;
    int wb = graph.nodes[static_cast<std::size_t>(b)].weight;
    if (wa != wb) return wa > wb;
    return a < b;
  });

  // With every stage in [1, S] and every edge's gap respected, the time
  // frame of a single unpinned node is exactly [max over preds of
  // pin + gap, min over succs of pin - gap] clipped to [1, S] — no global
  // frame pass needed. A clamped (infeasible) schedule can reach refine
  // via the ASAP/list paths on an infeasible graph; those fall back to the
  // full per-node frame computation so behavior there is unchanged too.
  bool consistent = true;
  for (int i = 0; i < n && consistent; ++i) {
    int st = (*stage_of)[static_cast<std::size_t>(i)];
    if (st < 1 || st > graph.num_stages) {
      consistent = false;
      break;
    }
    for (int pr : graph.nodes[static_cast<std::size_t>(i)].preds) {
      if ((*stage_of)[static_cast<std::size_t>(pr)] +
              schedule_gap(graph, pr, i) >
          st) {
        consistent = false;
        break;
      }
    }
  }

  for (int sweep = 0; sweep < options.max_refine_sweeps; ++sweep) {
    bool improved = false;
    for (int i : order) {
      int cur = (*stage_of)[static_cast<std::size_t>(i)];
      // Only bother with nodes sitting in a peak stage.
      if (tally.le_count(cur) < tally.max_le()) continue;

      int a, b;
      if (consistent) {
        a = 1;
        b = graph.num_stages;
        const ScheduleNode& sn = graph.nodes[static_cast<std::size_t>(i)];
        for (int pr : sn.preds)
          a = std::max(a, (*stage_of)[static_cast<std::size_t>(pr)] +
                              schedule_gap(graph, pr, i));
        for (int sc : sn.succs)
          b = std::min(b, (*stage_of)[static_cast<std::size_t>(sc)] -
                              schedule_gap(graph, i, sc));
#ifdef NANOMAP_AUDIT_FDS
        {
          (*stage_of)[static_cast<std::size_t>(i)] = 0;
          TimeFrames ref = compute_time_frames(graph, *stage_of);
          (*stage_of)[static_cast<std::size_t>(i)] = cur;
          NM_CHECK_MSG(ref.asap[static_cast<std::size_t>(i)] == a &&
                           ref.alap[static_cast<std::size_t>(i)] == b,
                       "audit: refine window of node " << i << " diverged");
        }
#endif
      } else {
        (*stage_of)[static_cast<std::size_t>(i)] = 0;
        TimeFrames frames = compute_time_frames(graph, *stage_of);
        a = frames.asap[static_cast<std::size_t>(i)];
        b = frames.alap[static_cast<std::size_t>(i)];
        (*stage_of)[static_cast<std::size_t>(i)] = cur;
      }

      int best_stage = cur;
      for (int j = a; j <= b; ++j) {
        if (j == cur) continue;
        auto m2 = tally.metric_if_moved(i, j, *stage_of);
        if (m2 < best_metric) {
          best_metric = m2;
          best_stage = j;
        }
      }
      if (best_stage != cur) {
        improved = true;
        tally.commit_move(i, best_stage, *stage_of);
        (*stage_of)[static_cast<std::size_t>(i)] = best_stage;
#ifdef NANOMAP_AUDIT_FDS
        {
          FdsResult ref;
          tally_stage_usage(graph, ops, arch, *stage_of, &ref);
          long long sq = 0;
          for (std::size_t j = 1; j < ref.le_count.size(); ++j) {
            long long v = ref.le_count[j];
            sq += v * v;
          }
          NM_CHECK_MSG(
              tally.metric() == std::make_pair(ref.max_le, sq),
              "audit: refine tally diverged after moving node " << i);
        }
#endif
      }
    }
    if (!improved) break;
  }
}

}  // namespace

FdsResult schedule_plane(const PlaneScheduleGraph& graph,
                         const ArchParams& arch, const FdsOptions& options) {
  NM_FAULT_POINT("fds.schedule");
  NM_TRACE_SPAN("fds.plane");
  const int n = static_cast<int>(graph.nodes.size());
  FdsResult result;
  result.stage_of.assign(static_cast<std::size_t>(n), 0);
  std::vector<StorageOp> ops = build_storage_ops(graph);

  if (!graph.feasible) {
    result.feasible = false;
  }
  if (n == 0) {
    tally_stage_usage(graph, ops, arch, result.stage_of, &result);
    return result;
  }

  // Storage ops touching each node (as producer or consumer), for the
  // storage component of the self-force and the refine tally.
  std::vector<std::vector<int>> ops_of_node(static_cast<std::size_t>(n));
  for (std::size_t oi = 0; oi < ops.size(); ++oi) {
    ops_of_node[static_cast<std::size_t>(ops[oi].producer)].push_back(
        static_cast<int>(oi));
    for (int c : ops[oi].consumers)
      ops_of_node[static_cast<std::size_t>(c)].push_back(
          static_cast<int>(oi));
  }

  if (options.scheduler == SchedulerKind::kAsap) {
    TimeFrames frames = compute_time_frames(graph, result.stage_of);
    if (!frames.feasible) result.feasible = false;
    for (int i = 0; i < n; ++i)
      result.stage_of[static_cast<std::size_t>(i)] =
          frames.asap[static_cast<std::size_t>(i)];
    if (options.refine)
      refine_schedule(graph, ops, ops_of_node, arch, options,
                      &result.stage_of);
    tally_stage_usage(graph, ops, arch, result.stage_of, &result);
    return result;
  }

  if (options.scheduler == SchedulerKind::kList) {
    TimeFrames frames = compute_time_frames(graph, result.stage_of);
    if (!frames.feasible) result.feasible = false;
    // Resource-constrained list scheduling: nodes in topological order
    // (the static ASAP order), each placed at the earliest precedence-
    // feasible cycle whose LUT usage stays under the balanced target; if
    // none exists inside the node's static window, the least-used cycle
    // wins.
    int total_weight = 0;
    for (const ScheduleNode& sn : graph.nodes) total_weight += sn.weight;
    int target = (total_weight + graph.num_stages - 1) / graph.num_stages;
    for (const ScheduleNode& sn : graph.nodes)
      target = std::max(target, sn.weight);

    std::vector<int> usage(static_cast<std::size_t>(graph.num_stages) + 1,
                           0);
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&frames](int a, int b) {
      int fa = frames.asap[static_cast<std::size_t>(a)];
      int fb = frames.asap[static_cast<std::size_t>(b)];
      if (fa != fb) return fa < fb;
      return a < b;
    });
    for (int i : order) {
      const ScheduleNode& sn = graph.nodes[static_cast<std::size_t>(i)];
      int earliest = frames.asap[static_cast<std::size_t>(i)];
      for (int pr : sn.preds) {
        earliest = std::max(
            earliest, result.stage_of[static_cast<std::size_t>(pr)] +
                          schedule_gap(graph, pr, i));
      }
      int latest = std::max(earliest,
                            frames.alap[static_cast<std::size_t>(i)]);
      latest = std::min(latest, graph.num_stages);
      int chosen = -1;
      for (int j = earliest; j <= latest; ++j) {
        if (usage[static_cast<std::size_t>(j)] + sn.weight <= target) {
          chosen = j;
          break;
        }
      }
      if (chosen < 0) {
        chosen = earliest;
        for (int j = earliest; j <= latest; ++j) {
          if (usage[static_cast<std::size_t>(j)] <
              usage[static_cast<std::size_t>(chosen)])
            chosen = j;
        }
      }
      result.stage_of[static_cast<std::size_t>(i)] = chosen;
      usage[static_cast<std::size_t>(chosen)] += sn.weight;
    }
    // Legality check: processing in ASAP order with dynamic earliest
    // keeps precedence; verify through the frame machinery.
    TimeFrames check = compute_time_frames(graph, result.stage_of);
    if (!check.feasible) result.feasible = false;
    if (options.refine)
      refine_schedule(graph, ops, ops_of_node, arch, options,
                      &result.stage_of);
    tally_stage_usage(graph, ops, arch, result.stage_of, &result);
    return result;
  }

  // SchedulerKind::kFds: the incremental pin loop (see fds_kernel.h). The
  // kernel computes its own frames (folding their feasibility into its
  // return value, like the loop it replaced) and produces schedules
  // byte-identical to the original from-scratch scheduler.
  FdsScheduler kernel(graph, arch, ops, ops_of_node);
  if (!kernel.run(&result.stage_of)) result.feasible = false;

  if (options.refine && result.feasible)
    refine_schedule(graph, ops, ops_of_node, arch, options,
                    &result.stage_of);
  tally_stage_usage(graph, ops, arch, result.stage_of, &result);
  return result;
}

}  // namespace nanomap
