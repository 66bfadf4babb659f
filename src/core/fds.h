// Force-directed scheduling of LUTs / LUT clusters onto folding cycles
// (paper §4.2, Eqs. 5-14, Algorithm 1).
//
// Adapted from Paulin & Knight's FDS: folding cycles play the role of
// control steps, and *two* distribution graphs are maintained — one for
// LUT computations (Eq. 5) and one for register storage (Eqs. 6-11) —
// because an LE provides both a LUT and ff_per_le flip-flops. The
// self-force of a candidate assignment combines both resources via
// Eq. 14's max(lut_force/h, storage_force/l); predecessor/successor forces
// come from time-frame clipping (Eq. 13), with a gap of 0 between nodes
// whose level spans let them share a folding stage.
//
// One node is committed per iteration (the node whose best assignment has
// the globally lowest total force), after which exact level-aware time
// frames are recomputed. Candidates are scanned in ascending (node, stage)
// order and a challenger must beat the incumbent by more than 1e-12, so
// ties resolve deterministically to the lowest force, then the lowest node
// id, then the lowest stage.
//
// The kFds path runs on the incremental kernel in core/fds_kernel.h; the
// schedules it emits are byte-identical to the original from-scratch
// implementation (retained as schedule_plane_reference for differential
// testing).
#pragma once

#include <vector>

#include "arch/nature.h"
#include "core/schedule_graph.h"

namespace nanomap {

// A value produced by `producer` that may have to live in flip-flops
// across folding cycles (paper §4.2.1 storage operations).
struct StorageOp {
  int producer = -1;
  std::vector<int> consumers;   // schedule-node ids reading the value
  bool anchored_at_end = false; // captured by a FF/PO: lives to stage S
  int weight = 1;               // number of stored bits (member LUT outputs)
};

// Builds the storage operations of a plane's schedule graph.
std::vector<StorageOp> build_storage_ops(const PlaneScheduleGraph& graph);

struct DistributionGraphs {
  // Indexed by folding cycle 1..S (index 0 unused).
  std::vector<double> lut;      // Eq. 5
  std::vector<double> storage;  // Eq. 11
};

// DGs for the current partial schedule (stage_of[i] == 0 → unscheduled).
DistributionGraphs compute_dgs(const PlaneScheduleGraph& graph,
                               const std::vector<StorageOp>& ops,
                               const std::vector<int>& stage_of,
                               const TimeFrames& frames);

enum class SchedulerKind {
  kFds,   // the paper's force-directed scheduling (Algorithm 1)
  kAsap,  // everything at its earliest cycle (no balancing; baseline)
  kList,  // resource-constrained list scheduling: earliest cycle whose LUT
          // usage stays under the balanced target (classic HLS alternative)
};

struct FdsOptions {
  SchedulerKind scheduler = SchedulerKind::kFds;
  // Post-scheduling rebalancing: greedily moves nodes out of peak-usage
  // folding cycles within their (recomputed) time frames while the peak LE
  // count improves. An extension over the paper's Algorithm 1.
  bool refine = true;
  int max_refine_sweeps = 8;
};

struct FdsResult {
  bool feasible = true;
  std::vector<int> stage_of;   // 1-based folding cycle per schedule node
  std::vector<int> lut_count;  // per stage 1..S (index 0 unused)
  std::vector<int> ff_count;   // per stage, incl. plane registers
  std::vector<int> le_count;   // per stage: max(luts, ceil(ffs/ff_per_le))
  int max_le = 0;              // plane's LE requirement
};

// Schedules one plane. The result is always precedence-legal; `feasible`
// is false only if the graph itself cannot fit the stage budget.
FdsResult schedule_plane(const PlaneScheduleGraph& graph,
                         const ArchParams& arch,
                         const FdsOptions& options = {});

// Exact per-stage resource usage for a complete schedule (also used by
// temporal clustering and the tests).
void tally_stage_usage(const PlaneScheduleGraph& graph,
                       const std::vector<StorageOp>& ops,
                       const ArchParams& arch,
                       const std::vector<int>& stage_of, FdsResult* result);

}  // namespace nanomap
