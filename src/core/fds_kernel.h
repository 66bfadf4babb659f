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
//   * Incremental frames. A pin moves only the frames downstream of the
//     node (ASAP) and upstream of it (ALAP), so IncrementalFrames walks
//     forward in topological rank from the pinned node and backward in
//     reverse rank, stopping wherever a node's value does not change,
//     instead of one full compute_time_frames pass per pin. The nodes it
//     visits are exactly the ones whose frames may have moved, which also
//     drives the DG-bin and dirty-node marking below without an O(n) diff.
//
// RefineTally maintains the per-stage usage tally of refine_schedule under
// single-node moves (pure integer deltas — exact), replacing a full
// tally_stage_usage per candidate stage.
//
// -DNANOMAP_AUDIT_FDS=ON (wired into the tsan preset) cross-checks the
// incremental frames (against compute_time_frames), the incremental DGs
// (bit-exact), every cached force row (bit-exact, against
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

// Time frames of one plane kept equal to compute_time_frames(graph,
// stage_of) while stage_of changes one node at a time. The backward pass
// of compute_time_frames reads its successors' values before the final
// alap = max(alap, asap) clamp, so those raw values are kept separately.
// Feasibility is a count of nodes whose forward or backward value breaks
// their pin or the stage range. The clamp needs no count of its own:
// were alap < asap at some node with no such violation anywhere, the
// successors its backward value came from would lead to a node whose
// backward value is its own pin or S and still lies below its asap,
// which is a forward violation there.
class IncrementalFrames {
 public:
  explicit IncrementalFrames(const PlaneScheduleGraph& graph);

  // Recomputes every node (the full pass).
  void reset(const std::vector<int>& stage_of);
  // Brings the frames up to date after stage_of[node] changed, visiting
  // only the nodes the change can reach. Returns the nodes whose asap or
  // alap changed, in no particular order (valid until the next call).
  const std::vector<int>& repin(int node, const std::vector<int>& stage_of);

  const TimeFrames& frames() const { return tf_; }

 private:
  enum : unsigned char { kFwd = 1, kBwd = 2 };

  int forward_value(int u, const std::vector<int>& stage_of);
  int backward_value(int u, const std::vector<int>& stage_of);
  void set_violation(int u, unsigned char bit, bool on);
  void touch(int u);

  const PlaneScheduleGraph& graph_;
  std::vector<int> topo_, rank_;
  TimeFrames tf_;
  std::vector<int> raw_alap_;  // backward values before the asap clamp
  std::vector<unsigned char> violation_;
  int num_violating_ = 0;

  std::vector<int> heap_;  // topological ranks
  std::vector<int> queued_, touched_stamp_;
  int queue_stamp_ = 0, touch_stamp_ = 0;
  std::vector<int> touched_, changed_;
};

// One plane's incremental FDS pin loop. Construct, then run(); the object
// holds all preallocated scratch, so nothing allocates inside the loop
// except the first scoring pass.
class FdsScheduler {
 public:
  FdsScheduler(const PlaneScheduleGraph& graph, const ArchParams& arch,
               const std::vector<StorageOp>& ops,
               const std::vector<std::vector<int>>& ops_of_node);
  // frames_ refers into inc_frames_, so a copy would read the original's.
  FdsScheduler(const FdsScheduler&) = delete;
  FdsScheduler& operator=(const FdsScheduler&) = delete;

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

  IncrementalFrames inc_frames_;
  const TimeFrames& frames_;  // inc_frames_'s current frames
  // Frames and effective intervals as of the previous pin; only the nodes
  // a pin changed are copied forward.
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
