// Incremental force-directed scheduling kernel (the engine behind
// schedule_plane's SchedulerKind::kFds path and the refine sweeps).
//
// The seed scheduler recomputed both distribution graphs from scratch on
// every outer iteration, copied the full ASAP/ALAP vectors per
// (node, stage) candidate, and re-scored every unscheduled candidate even
// when nothing it reads had changed — an O(n^3)-shaped loop. This kernel
// keeps the *identical* arithmetic (same floating-point operations in the
// same order, so every force value is bit-equal to the seed's) while doing
// asymptotically less work:
//
//   * Incremental DGs. After a pin, only the DG bins whose covering
//     node frames / storage-op spans changed are rebuilt — and each dirty
//     bin is re-summed over contributors in the seed's id order, so the
//     rebuilt bin is bit-identical to a from-scratch compute_dgs, not just
//     mathematically equal.
//   * O(degree) candidate evaluation. The storage self-force only reads
//     the tentative pin through the producer/consumer entries of the ops
//     touching the node, so a single-entry override replaces the seed's
//     two O(n) vector copies; before/after scratch is preallocated
//     once per scheduler.
//   * Dirty-node cache. A node's cached per-stage forces stay valid until
//     (a) its own time frame changes, (b) a predecessor/successor frame
//     changes or gets pinned, (c) a storage op touching it has a member
//     frame change, or (d) a DG bin inside its recorded read window
//     changes value. Anything else is skipped.
//   * Deterministic selection. The winner is chosen by a fold over
//     candidates in ascending (node, stage) order with the seed's epsilon
//     rule (total < best - 1e-12). Ties resolve first-candidate-wins:
//     lowest force, then lowest node id, then lowest stage.
//
// RefineTally maintains the per-stage usage tally of refine_schedule under
// single-node moves (pure integer deltas — exact), replacing a full
// tally_stage_usage per candidate stage.
//
// -DNANOMAP_AUDIT_FDS=ON (wired into the tsan preset) cross-checks the
// incremental DGs (bit-exact), every cached force row (bit-exact, against
// a seed-style full-copy evaluation), the refine windows (against
// compute_time_frames) and the refine tally (against tally_stage_usage)
// every iteration.
#pragma once

#include <utility>
#include <vector>

#include "arch/nature.h"
#include "core/fds.h"
#include "core/schedule_graph.h"

namespace nanomap {

// One plane's incremental FDS pin loop. Construct, then run(); the object
// holds all preallocated scratch, so nothing allocates inside the loop
// except the first scoring pass.
class FdsScheduler {
 public:
  FdsScheduler(const PlaneScheduleGraph& graph, const ArchParams& arch,
               const std::vector<StorageOp>& ops,
               const std::vector<std::vector<int>>& ops_of_node);

  // Pins every node of `stage_of` (must be all-zero, size n). Returns
  // false if the frame machinery reported infeasibility at any point
  // (same contract as the seed loop; the schedule is still fully pinned,
  // via the ASAP fallback if force search dead-ends).
  bool run(std::vector<int>* stage_of);

 private:
  struct NodeWindow {
    int lut_lo = 0, lut_hi = -1;  // DG bins this node's forces read
    int st_lo = 0, st_hi = -1;
  };

  void score_node(int u, const std::vector<int>& stage_of);
  double candidate_force(int u, int j, const std::vector<int>& stage_of);
  void pin_update(int pinned, const std::vector<int>& stage_of);
  void rebuild_dirty_bins(const std::vector<int>& stage_of);
#ifdef NANOMAP_AUDIT_FDS
  void audit_state(const std::vector<int>& stage_of) const;
#endif

  const PlaneScheduleGraph& graph_;
  const std::vector<StorageOp>& ops_;
  const std::vector<std::vector<int>>& ops_of_node_;
  int n_ = 0;
  int s_ = 0;  // num_stages
  double l_ = 1.0;  // arch.ff_per_le (Eq. 14's l; divided, never inverted,
                    // to keep the arithmetic bit-identical to the seed)

  std::vector<int> topo_;
  TimeFrames frames_;
  std::vector<int> prev_asap_, prev_alap_;

  DistributionGraphs dgs_;
  // Effective LUT-DG contribution interval per node: the pin when pinned,
  // the time frame otherwise (mirrors compute_dgs exactly).
  std::vector<int> eff_a_, eff_b_;
  std::vector<int> prev_eff_a_, prev_eff_b_;

  // Cached candidate forces: row i, column j = force of pinning node i at
  // stage j (+inf marks precedence-infeasible candidates, which the seed
  // skipped). Only columns [asap_i, alap_i] are meaningful.
  std::vector<double> forces_;
  std::vector<NodeWindow> windows_;
  std::vector<char> node_dirty_;
  std::vector<int> dirty_list_;
  // Storage distributions before/after a tentative pin (candidate_force).
  std::vector<double> before_, after_;

  // Per-pin delta machinery.
  std::vector<int> changed_frames_;        // nodes whose frames changed
  std::vector<char> lut_bin_dirty_, st_bin_dirty_;
  std::vector<double> old_lut_val_, old_st_val_;
  std::vector<int> lut_changed_prefix_, st_changed_prefix_;
  std::vector<int> touched_ops_;
  std::vector<int> op_stamp_;
  int stamp_ = 0;
};

// Per-stage LUT/FF/LE usage tally maintained incrementally under
// single-node stage moves. All state is integral, so every metric equals
// the one tally_stage_usage would produce from scratch — refine decisions
// are exactly the seed's at a fraction of the cost.
class RefineTally {
 public:
  RefineTally(const PlaneScheduleGraph& graph,
              const std::vector<StorageOp>& ops,
              const std::vector<std::vector<int>>& ops_of_node,
              const ArchParams& arch, const std::vector<int>& stage_of);

  int max_le() const { return max_le_; }
  int le_count(int stage) const {
    return le_count_[static_cast<std::size_t>(stage)];
  }
  // Balance metric (peak LE, sum of squared per-stage LEs) of the current
  // schedule.
  std::pair<int, long long> metric() const { return {max_le_, sq_}; }

  // Metric of the schedule with node i moved from its current stage to
  // `to` (stage_of itself is not modified; i's entry must still hold the
  // current stage). Leaves the tally unchanged.
  std::pair<int, long long> metric_if_moved(int i, int to,
                                            const std::vector<int>& stage_of);

  // Commits the move i: stage_of[i] -> to. Call before updating stage_of.
  void commit_move(int i, int to, const std::vector<int>& stage_of);

 private:
  // Applies the move's integer deltas, logging prior values for revert().
  std::pair<int, long long> apply_move(int i, int to,
                                       const std::vector<int>& stage_of);
  void revert();
  void touch(int stage);

  const PlaneScheduleGraph& graph_;
  const std::vector<StorageOp>& ops_;
  const std::vector<std::vector<int>>& ops_of_node_;
  int s_ = 0;
  int ff_per_le_ = 1;

  std::vector<int> lut_count_, ff_count_, le_count_;
  int max_le_ = 0;
  long long sq_ = 0;

  struct Undo {
    int stage, lut, ff, le;
  };
  std::vector<Undo> undo_;
  std::vector<int> stage_stamp_;
  int stamp_ = 0;
};

}  // namespace nanomap
