#include "core/fds_kernel.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/trace.h"

namespace nanomap {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Stage of node x under `stage`, with a single-entry override. The
// override is how the kernel evaluates a tentative pin without copying the
// ASAP/ALAP vectors: every read sees exactly the value the seed's copied
// vector held, so all downstream arithmetic is bit-identical.
inline int stage_at(const std::vector<int>& stage, int ov_node, int ov_stage,
                    int x) {
  return x == ov_node ? ov_stage : stage[static_cast<std::size_t>(x)];
}

// Storage-op lifetime endpoints under a stage function + override.
std::pair<int, int> lifetime_under_ov(const StorageOp& op,
                                      const std::vector<int>& stage,
                                      int ov_node, int ov_stage,
                                      int num_stages) {
  int begin = stage_at(stage, ov_node, ov_stage, op.producer);
  int end = begin;
  for (int c : op.consumers)
    end = std::max(end, stage_at(stage, ov_node, ov_stage, c));
  if (op.anchored_at_end) end = num_stages;
  return {begin, end};
}

// Eq. 9/10 distribution of one storage op, with a single-entry override on
// the ASAP/ALAP stage functions and an optional bin mask (used when
// rebuilding only the dirty DG bins). Arithmetic is identical to the
// from-scratch add_storage_distribution: the mask only gates the final +=.
void add_storage_distribution_ov(const StorageOp& op,
                                 const std::vector<int>& asap,
                                 const std::vector<int>& alap, int ov_node,
                                 int ov_stage, int num_stages,
                                 std::vector<double>* dg,
                                 const std::vector<char>* mask = nullptr) {
  auto [asap_begin, asap_end] =
      lifetime_under_ov(op, asap, ov_node, ov_stage, num_stages);
  auto [alap_begin, alap_end] =
      lifetime_under_ov(op, alap, ov_node, ov_stage, num_stages);

  const double asap_len = asap_end - asap_begin + 1;
  const double alap_len = alap_end - alap_begin + 1;
  const int max_begin = asap_begin;
  const int max_end = alap_end;
  const double max_len = max_end - max_begin + 1;
  const int ov_begin = alap_begin;
  const int ov_end = asap_end;
  const double ov_len = std::max(0, ov_end - ov_begin + 1);
  const double avg_life = (asap_len + alap_len + max_len) / 3.0;

  const double w = static_cast<double>(op.weight);
  for (int j = max_begin; j <= max_end; ++j) {
    double prob;
    if (j >= ov_begin && j <= ov_end) {
      prob = 1.0;
    } else if (max_len > ov_len) {
      prob = (avg_life - ov_len) / (max_len - ov_len);
      prob = std::clamp(prob, 0.0, 1.0);
    } else {
      prob = 1.0;
    }
    if (mask == nullptr || (*mask)[static_cast<std::size_t>(j)])
      (*dg)[static_cast<std::size_t>(j)] += prob * w;
  }
}

// Eq. 13 force (same as the seed's frame_change_force).
double frame_change_force(const std::vector<double>& dg, double weight,
                          int a0, int b0, int a1, int b1) {
  const double p0 = 1.0 / (b0 - a0 + 1);
  const double p1 = 1.0 / (b1 - a1 + 1);
  double force = 0.0;
  for (int j = a0; j <= b0; ++j)
    force -= dg[static_cast<std::size_t>(j)] * p0 * weight;
  for (int j = a1; j <= b1; ++j)
    force += dg[static_cast<std::size_t>(j)] * p1 * weight;
  return force;
}

}  // namespace

// ---------------------------------------------------------------------
// IncrementalFrames
// ---------------------------------------------------------------------

IncrementalFrames::IncrementalFrames(const PlaneScheduleGraph& graph)
    : graph_(graph), topo_(topological_order(graph)) {
  const std::size_t n = graph.nodes.size();
  rank_.resize(n);
  for (std::size_t r = 0; r < n; ++r)
    rank_[static_cast<std::size_t>(topo_[r])] = static_cast<int>(r);
  tf_.asap.assign(n, 1);
  tf_.alap.assign(n, graph.num_stages);
  raw_alap_.assign(n, graph.num_stages);
  violation_.assign(n, 0);
  queued_.assign(n, 0);
  touched_stamp_.assign(n, 0);
  heap_.reserve(n);
  touched_.reserve(n);
  changed_.reserve(n);
}

// The per-node steps of compute_time_frames: the forward (ASAP) value
// from the predecessors' asap, the backward value from the successors' raw
// backward values, each clamped to [1, S] with the violation recorded.
int IncrementalFrames::forward_value(int u, const std::vector<int>& stage_of) {
  const ScheduleNode& sn = graph_.nodes[static_cast<std::size_t>(u)];
  int stage = 1;
  for (int pr : sn.preds)
    stage = std::max(stage, tf_.asap[static_cast<std::size_t>(pr)] +
                                schedule_gap(graph_, pr, u));
  const int pin = stage_of[static_cast<std::size_t>(u)];
  if (pin > 0) stage = std::max(stage, pin);
  const bool bad = stage > graph_.num_stages || (pin > 0 && stage != pin);
  set_violation(u, kFwd, bad);
  return bad ? std::min(stage, graph_.num_stages) : stage;
}

int IncrementalFrames::backward_value(int u,
                                      const std::vector<int>& stage_of) {
  const ScheduleNode& sn = graph_.nodes[static_cast<std::size_t>(u)];
  int stage = graph_.num_stages;
  for (int sc : sn.succs)
    stage = std::min(stage, raw_alap_[static_cast<std::size_t>(sc)] -
                                schedule_gap(graph_, u, sc));
  const int pin = stage_of[static_cast<std::size_t>(u)];
  if (pin > 0) stage = std::min(stage, pin);
  const bool bad = stage < 1 || (pin > 0 && stage != pin);
  set_violation(u, kBwd, bad);
  return bad ? std::max(stage, 1) : stage;
}

void IncrementalFrames::set_violation(int u, unsigned char bit, bool on) {
  unsigned char& v = violation_[static_cast<std::size_t>(u)];
  const bool was = v != 0;
  v = on ? static_cast<unsigned char>(v | bit)
         : static_cast<unsigned char>(v & ~bit);
  num_violating_ += (v != 0) - was;
}

void IncrementalFrames::touch(int u) {
  if (touched_stamp_[static_cast<std::size_t>(u)] == touch_stamp_) return;
  touched_stamp_[static_cast<std::size_t>(u)] = touch_stamp_;
  touched_.push_back(u);
}

void IncrementalFrames::reset(const std::vector<int>& stage_of) {
  NM_CHECK(stage_of.size() == graph_.nodes.size());
  for (int u : topo_) tf_.asap[static_cast<std::size_t>(u)] =
      forward_value(u, stage_of);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it)
    raw_alap_[static_cast<std::size_t>(*it)] = backward_value(*it, stage_of);
  for (std::size_t i = 0; i < graph_.nodes.size(); ++i)
    tf_.alap[i] = std::max(raw_alap_[i], tf_.asap[i]);
  tf_.feasible = num_violating_ == 0;
}

const std::vector<int>& IncrementalFrames::repin(
    int node, const std::vector<int>& stage_of) {
  ++touch_stamp_;
  touched_.clear();
  changed_.clear();

  // Forward: pop in ascending rank, so every predecessor a node reads is
  // final when the node is recomputed; a node whose asap did not move
  // queues nothing.
  const auto by_rank_asc = std::greater<int>();
  ++queue_stamp_;
  heap_.push_back(rank_[static_cast<std::size_t>(node)]);
  queued_[static_cast<std::size_t>(node)] = queue_stamp_;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), by_rank_asc);
    const int u = topo_[static_cast<std::size_t>(heap_.back())];
    heap_.pop_back();
    const int a = forward_value(u, stage_of);
    if (a == tf_.asap[static_cast<std::size_t>(u)]) continue;
    tf_.asap[static_cast<std::size_t>(u)] = a;
    touch(u);
    for (int sc : graph_.nodes[static_cast<std::size_t>(u)].succs) {
      if (queued_[static_cast<std::size_t>(sc)] == queue_stamp_) continue;
      queued_[static_cast<std::size_t>(sc)] = queue_stamp_;
      heap_.push_back(rank_[static_cast<std::size_t>(sc)]);
      std::push_heap(heap_.begin(), heap_.end(), by_rank_asc);
    }
  }

  const std::size_t asap_moved = touched_.size();

  // Backward, symmetric: descending rank over the raw backward values.
  ++queue_stamp_;
  const auto by_rank_desc = std::less<int>();
  heap_.push_back(rank_[static_cast<std::size_t>(node)]);
  queued_[static_cast<std::size_t>(node)] = queue_stamp_;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), by_rank_desc);
    const int u = topo_[static_cast<std::size_t>(heap_.back())];
    heap_.pop_back();
    const int r = backward_value(u, stage_of);
    if (r == raw_alap_[static_cast<std::size_t>(u)]) continue;
    raw_alap_[static_cast<std::size_t>(u)] = r;
    touch(u);
    for (int pr : graph_.nodes[static_cast<std::size_t>(u)].preds) {
      if (queued_[static_cast<std::size_t>(pr)] == queue_stamp_) continue;
      queued_[static_cast<std::size_t>(pr)] = queue_stamp_;
      heap_.push_back(rank_[static_cast<std::size_t>(pr)]);
      std::push_heap(heap_.begin(), heap_.end(), by_rank_desc);
    }
  }

  // The clamp, on the nodes whose asap or raw backward value moved (the
  // first asap_moved of them are the ones whose asap did).
  for (std::size_t t = 0; t < touched_.size(); ++t) {
    const int u = touched_[t];
    const std::size_t ui = static_cast<std::size_t>(u);
    const int alap = std::max(raw_alap_[ui], tf_.asap[ui]);
    if (t < asap_moved || alap != tf_.alap[ui]) changed_.push_back(u);
    tf_.alap[ui] = alap;
  }
  tf_.feasible = num_violating_ == 0;
  return changed_;
}

// ---------------------------------------------------------------------
// FdsScheduler
// ---------------------------------------------------------------------

FdsScheduler::FdsScheduler(const PlaneScheduleGraph& graph,
                           const ArchParams& arch,
                           const std::vector<StorageOp>& ops,
                           const std::vector<std::vector<int>>& ops_of_node)
    : graph_(graph),
      ops_(ops),
      ops_of_node_(ops_of_node),
      inc_frames_(graph),
      frames_(inc_frames_.frames()) {
  n_ = static_cast<int>(graph.nodes.size());
  s_ = graph.num_stages;
  l_ = static_cast<double>(arch.ff_per_le);

  forces_.assign(static_cast<std::size_t>(n_) *
                     (static_cast<std::size_t>(s_) + 1),
                 kInf);
  windows_.resize(static_cast<std::size_t>(n_));
  node_dirty_.assign(static_cast<std::size_t>(n_), 1);
  lut_bin_dirty_.assign(static_cast<std::size_t>(s_) + 1, 0);
  st_bin_dirty_.assign(static_cast<std::size_t>(s_) + 1, 0);
  old_lut_val_.assign(static_cast<std::size_t>(s_) + 1, 0.0);
  old_st_val_.assign(static_cast<std::size_t>(s_) + 1, 0.0);
  before_.assign(static_cast<std::size_t>(s_) + 1, 0.0);
  after_.assign(static_cast<std::size_t>(s_) + 1, 0.0);
  lut_changed_prefix_.assign(static_cast<std::size_t>(s_) + 2, 0);
  st_changed_prefix_.assign(static_cast<std::size_t>(s_) + 2, 0);
  op_stamp_.assign(ops.size(), 0);
  dirty_list_.reserve(static_cast<std::size_t>(n_));
  touched_ops_.reserve(ops.size());
}

bool FdsScheduler::run(std::vector<int>* stage_of_ptr) {
  std::vector<int>& stage_of = *stage_of_ptr;
  bool feasible = true;
  NM_TRACE_COUNT("fds.schedule_calls", 1);

  inc_frames_.reset(stage_of);
  if (!frames_.feasible) feasible = false;

  // Iteration 0 state: from-scratch DGs, every node dirty. stage_of is
  // all-zero, so every effective LUT-DG interval is the node's frame.
  dgs_ = compute_dgs(graph_, ops_, stage_of, frames_);
  prev_asap_ = frames_.asap;
  prev_alap_ = frames_.alap;
  eff_a_ = prev_eff_a_ = frames_.asap;
  eff_b_ = prev_eff_b_ = frames_.alap;

  int remaining = n_;
  while (remaining > 0) {
    // Re-score dirty candidates. Each node writes only its private force
    // row + read window; frames/DGs/stage_of are read-only here.
    dirty_list_.clear();
    for (int i = 0; i < n_; ++i) {
      if (stage_of[static_cast<std::size_t>(i)] == 0 &&
          node_dirty_[static_cast<std::size_t>(i)])
        dirty_list_.push_back(i);
    }
    NM_TRACE_COUNT("fds.candidates_scored",
                   static_cast<long>(dirty_list_.size()));
    NM_TRACE_VALUE("fds.dirty_per_pin", dirty_list_.size());
    for (int u : dirty_list_) {
      score_node(u, stage_of);
      node_dirty_[static_cast<std::size_t>(u)] = 0;
    }

#ifdef NANOMAP_AUDIT_FDS
    audit_state(stage_of);
#endif

    // Deterministic reduction: sequential fold over candidates in
    // ascending (node, stage) order with the seed's epsilon rule. Ties
    // resolve first-candidate-wins — lowest force, then lowest node id,
    // then lowest stage — and infeasible candidates (+inf) never win.
    double best_force = kInf;
    int best_node = -1;
    int best_stage = -1;
    for (int i = 0; i < n_; ++i) {
      if (stage_of[static_cast<std::size_t>(i)] != 0) continue;
      const int a = frames_.asap[static_cast<std::size_t>(i)];
      const int b = frames_.alap[static_cast<std::size_t>(i)];
      const double* row =
          &forces_[static_cast<std::size_t>(i) *
                   (static_cast<std::size_t>(s_) + 1)];
      for (int j = a; j <= b; ++j) {
        if (row[j] < best_force - 1e-12) {
          best_force = row[j];
          best_node = i;
          best_stage = j;
        }
      }
    }

    if (best_node < 0) {
      // No feasible candidate found via force search (should not happen
      // on a feasible graph): fall back to ASAP for the remaining nodes.
      for (int i = 0; i < n_; ++i) {
        if (stage_of[static_cast<std::size_t>(i)] == 0)
          stage_of[static_cast<std::size_t>(i)] =
              frames_.asap[static_cast<std::size_t>(i)];
      }
      feasible = feasible && frames_.feasible;
      break;
    }

    stage_of[static_cast<std::size_t>(best_node)] = best_stage;
    --remaining;
    NM_TRACE_COUNT("fds.pins", 1);
    pin_update(best_node, stage_of);
    if (!frames_.feasible) feasible = false;
  }
  return feasible;
}

void FdsScheduler::score_node(int u, const std::vector<int>& stage_of) {
  const ScheduleNode& sn = graph_.nodes[static_cast<std::size_t>(u)];
  const int a = frames_.asap[static_cast<std::size_t>(u)];
  const int b = frames_.alap[static_cast<std::size_t>(u)];

  // Record the DG bins this node's forces read: its own frame, the frames
  // of unpinned neighbors (clipped-frame forces), and the spans of the
  // storage ops touching it. The cached row stays valid until one of
  // those inputs — or a bin inside these windows — changes.
  NodeWindow w;
  w.lut_lo = a;
  w.lut_hi = b;
  for (int pr : sn.preds) {
    if (stage_of[static_cast<std::size_t>(pr)] != 0) continue;
    w.lut_lo = std::min(w.lut_lo, frames_.asap[static_cast<std::size_t>(pr)]);
    w.lut_hi = std::max(w.lut_hi, frames_.alap[static_cast<std::size_t>(pr)]);
  }
  for (int sc : sn.succs) {
    if (stage_of[static_cast<std::size_t>(sc)] != 0) continue;
    w.lut_lo = std::min(w.lut_lo, frames_.asap[static_cast<std::size_t>(sc)]);
    w.lut_hi = std::max(w.lut_hi, frames_.alap[static_cast<std::size_t>(sc)]);
  }
  w.st_lo = s_ + 1;
  w.st_hi = 0;
  for (int oi : ops_of_node_[static_cast<std::size_t>(u)]) {
    auto [begin, end] = lifetime_under_ov(ops_[static_cast<std::size_t>(oi)],
                                          frames_.alap, -1, 0, s_);
    begin = frames_.asap[static_cast<std::size_t>(
        ops_[static_cast<std::size_t>(oi)].producer)];
    w.st_lo = std::min(w.st_lo, begin);
    w.st_hi = std::max(w.st_hi, end);
  }
  windows_[static_cast<std::size_t>(u)] = w;

  double* row = &forces_[static_cast<std::size_t>(u) *
                         (static_cast<std::size_t>(s_) + 1)];
  for (int j = a; j <= b; ++j) row[j] = candidate_force(u, j, stage_of);
}

double FdsScheduler::candidate_force(int u, int j,
                                     const std::vector<int>& stage_of) {
  const ScheduleNode& sn = graph_.nodes[static_cast<std::size_t>(u)];
  const int a = frames_.asap[static_cast<std::size_t>(u)];
  const int b = frames_.alap[static_cast<std::size_t>(u)];

  // --- LUT self-force (Eq. 13) ---------------------------------------
  double lut_self = frame_change_force(dgs_.lut, sn.weight, a, b, j, j);

  // --- storage self-force: the ops touching u, with u's frame overridden
  // to [j, j] via the single-entry override (the seed's asap2/alap2
  // copies, minus the copies). -----------------------------------------
  double storage_self = 0.0;
  const std::vector<int>& touching = ops_of_node_[static_cast<std::size_t>(u)];
  if (!touching.empty()) {
    std::fill(before_.begin(), before_.end(), 0.0);
    std::fill(after_.begin(), after_.end(), 0.0);
    for (int oi : touching) {
      add_storage_distribution_ov(ops_[static_cast<std::size_t>(oi)],
                                  frames_.asap, frames_.alap, -1, 0, s_,
                                  &before_);
      add_storage_distribution_ov(ops_[static_cast<std::size_t>(oi)],
                                  frames_.asap, frames_.alap, u, j, s_,
                                  &after_);
    }
    for (int jj = 1; jj <= s_; ++jj)
      storage_self += dgs_.storage[static_cast<std::size_t>(jj)] *
                      (after_[static_cast<std::size_t>(jj)] -
                       before_[static_cast<std::size_t>(jj)]);
  }

  // Eq. 14: the LE is the shared resource (h = 1 LUT per LE in NATURE).
  double total = std::max(lut_self / 1.0, storage_self / l_);

  // --- predecessor / successor forces (Eq. 13 on clipped frames) ------
  for (int pr : sn.preds) {
    if (stage_of[static_cast<std::size_t>(pr)] != 0) continue;
    int gap = schedule_gap(graph_, pr, u);
    int pa = frames_.asap[static_cast<std::size_t>(pr)];
    int pb = frames_.alap[static_cast<std::size_t>(pr)];
    int nb = std::min(pb, j - gap);
    if (nb < pa) return kInf;  // precedence-infeasible candidate
    if (nb != pb) {
      total += frame_change_force(
          dgs_.lut, graph_.nodes[static_cast<std::size_t>(pr)].weight, pa,
          pb, pa, nb);
    }
  }
  for (int sc : sn.succs) {
    if (stage_of[static_cast<std::size_t>(sc)] != 0) continue;
    int gap = schedule_gap(graph_, u, sc);
    int sa = frames_.asap[static_cast<std::size_t>(sc)];
    int sb = frames_.alap[static_cast<std::size_t>(sc)];
    int na = std::max(sa, j + gap);
    if (na > sb) return kInf;
    if (na != sa) {
      total += frame_change_force(
          dgs_.lut, graph_.nodes[static_cast<std::size_t>(sc)].weight, sa,
          sb, na, sb);
    }
  }
  return total;
}

void FdsScheduler::pin_update(int pinned, const std::vector<int>& stage_of) {
  // Propagate the pin through the frames. Only the nodes it changed (and
  // the pinned node, whose pin status flipped) get a new effective
  // interval; prev_* still hold every node's values from before the pin.
  const std::vector<int>& changed = inc_frames_.repin(pinned, stage_of);
  auto update_eff = [this, &stage_of](int i) {
    const std::size_t ii = static_cast<std::size_t>(i);
    const int pin = stage_of[ii];
    eff_a_[ii] = pin > 0 ? pin : frames_.asap[ii];
    eff_b_[ii] = pin > 0 ? pin : frames_.alap[ii];
  };
  for (int c : changed) update_eff(c);
  update_eff(pinned);

  // --- mark dirty DG bins --------------------------------------------
  std::fill(lut_bin_dirty_.begin(), lut_bin_dirty_.end(), 0);
  std::fill(st_bin_dirty_.begin(), st_bin_dirty_.end(), 0);
  auto mark_lut = [this](int lo, int hi) {
    for (int j = lo; j <= hi; ++j) {
      if (!lut_bin_dirty_[static_cast<std::size_t>(j)]) {
        lut_bin_dirty_[static_cast<std::size_t>(j)] = 1;
        old_lut_val_[static_cast<std::size_t>(j)] =
            dgs_.lut[static_cast<std::size_t>(j)];
      }
    }
  };
  auto mark_st = [this](int lo, int hi) {
    for (int j = lo; j <= hi; ++j) {
      if (!st_bin_dirty_[static_cast<std::size_t>(j)]) {
        st_bin_dirty_[static_cast<std::size_t>(j)] = 1;
        old_st_val_[static_cast<std::size_t>(j)] =
            dgs_.storage[static_cast<std::size_t>(j)];
      }
    }
  };
  // LUT bins: nodes whose *effective* contribution interval changed. The
  // effective interval changes only when the raw frame changed or the pin
  // status flipped (the freshly pinned node).
  auto mark_eff = [this, &mark_lut](int c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    if (prev_eff_a_[ci] == eff_a_[ci] && prev_eff_b_[ci] == eff_b_[ci])
      return;
    mark_lut(prev_eff_a_[ci], prev_eff_b_[ci]);
    mark_lut(eff_a_[ci], eff_b_[ci]);
  };
  for (int c : changed) mark_eff(c);
  mark_eff(pinned);

  // Storage bins: ops whose distribution inputs (member frames) changed;
  // dirty both their old and new [asap-begin, alap-end] spans.
  ++stamp_;
  touched_ops_.clear();
  for (int c : changed) {
    for (int oi : ops_of_node_[static_cast<std::size_t>(c)]) {
      if (op_stamp_[static_cast<std::size_t>(oi)] == stamp_) continue;
      op_stamp_[static_cast<std::size_t>(oi)] = stamp_;
      touched_ops_.push_back(oi);
    }
  }
  for (int oi : touched_ops_) {
    const StorageOp& op = ops_[static_cast<std::size_t>(oi)];
    auto old_end = lifetime_under_ov(op, prev_alap_, -1, 0, s_).second;
    auto new_end = lifetime_under_ov(op, frames_.alap, -1, 0, s_).second;
    mark_st(prev_asap_[static_cast<std::size_t>(op.producer)], old_end);
    mark_st(frames_.asap[static_cast<std::size_t>(op.producer)], new_end);
  }

  // Resync: prev_* equal the current frames and intervals again.
  auto resync = [this](int i) {
    const std::size_t ii = static_cast<std::size_t>(i);
    prev_asap_[ii] = frames_.asap[ii];
    prev_alap_[ii] = frames_.alap[ii];
    prev_eff_a_[ii] = eff_a_[ii];
    prev_eff_b_[ii] = eff_b_[ii];
  };
  for (int c : changed) resync(c);
  resync(pinned);

  rebuild_dirty_bins(stage_of);

  // Prefix counts of bins whose value actually changed, for O(1)
  // window-overlap queries below.
  lut_changed_prefix_[0] = 0;
  st_changed_prefix_[0] = 0;
  for (int j = 0; j <= s_; ++j) {
    const std::size_t ji = static_cast<std::size_t>(j);
    lut_changed_prefix_[ji + 1] =
        lut_changed_prefix_[ji] +
        ((lut_bin_dirty_[ji] && dgs_.lut[ji] != old_lut_val_[ji]) ? 1 : 0);
    st_changed_prefix_[ji + 1] =
        st_changed_prefix_[ji] +
        ((st_bin_dirty_[ji] && dgs_.storage[ji] != old_st_val_[ji]) ? 1
                                                                    : 0);
  }

  // --- mark dirty nodes for the next scoring pass ---------------------
  auto mark_node = [this](int v) {
    node_dirty_[static_cast<std::size_t>(v)] = 1;
  };
  auto mark_with_neighbors = [this, &mark_node](int c) {
    mark_node(c);
    const ScheduleNode& sn = graph_.nodes[static_cast<std::size_t>(c)];
    for (int pr : sn.preds) mark_node(pr);
    for (int sc : sn.succs) mark_node(sc);
  };
  // (a)+(b): frame changes propagate to the node and its neighbors; the
  // pin itself flips the neighbors' pinned-pred/succ checks even when no
  // frame moved.
  for (int c : changed) mark_with_neighbors(c);
  mark_with_neighbors(pinned);
  // (c): a storage op with a changed member frame invalidates *all* its
  // members (producer and every consumer — including "siblings" of the
  // changed node that share no graph edge with it).
  for (int oi : touched_ops_) {
    const StorageOp& op = ops_[static_cast<std::size_t>(oi)];
    mark_node(op.producer);
    for (int c : op.consumers) mark_node(c);
  }
  // (d): nodes whose recorded read window overlaps a bin whose value
  // changed.
  const bool any_changed =
      lut_changed_prefix_[static_cast<std::size_t>(s_) + 1] > 0 ||
      st_changed_prefix_[static_cast<std::size_t>(s_) + 1] > 0;
  if (any_changed) {
    auto overlaps = [](const std::vector<int>& prefix, int lo, int hi) {
      if (lo > hi) return false;
      return prefix[static_cast<std::size_t>(hi) + 1] -
                 prefix[static_cast<std::size_t>(lo)] >
             0;
    };
    for (int u = 0; u < n_; ++u) {
      const std::size_t ui = static_cast<std::size_t>(u);
      if (stage_of[ui] != 0 || node_dirty_[ui]) continue;
      const NodeWindow& w = windows_[ui];
      if (overlaps(lut_changed_prefix_, w.lut_lo, w.lut_hi) ||
          overlaps(st_changed_prefix_, w.st_lo, w.st_hi))
        node_dirty_[ui] = 1;
    }
  }
}

void FdsScheduler::rebuild_dirty_bins(const std::vector<int>& stage_of) {
  (void)stage_of;
  // Zero the dirty bins, then re-add contributions in the seed's order —
  // nodes by ascending id, then storage ops in op order, then the plane
  // registers — so every rebuilt bin is bit-identical to compute_dgs.
  int lut_lo = s_ + 1, lut_hi = 0;
  for (int j = 0; j <= s_; ++j) {
    if (lut_bin_dirty_[static_cast<std::size_t>(j)]) {
      dgs_.lut[static_cast<std::size_t>(j)] = 0.0;
      lut_lo = std::min(lut_lo, j);
      lut_hi = std::max(lut_hi, j);
    }
  }
  if (lut_lo <= lut_hi) {
    for (int i = 0; i < n_; ++i) {
      const int ea = eff_a_[static_cast<std::size_t>(i)];
      const int eb = eff_b_[static_cast<std::size_t>(i)];
      if (eb < lut_lo || ea > lut_hi) continue;
      const ScheduleNode& sn = graph_.nodes[static_cast<std::size_t>(i)];
      double prob = 1.0 / (eb - ea + 1);
      for (int j = std::max(ea, lut_lo); j <= std::min(eb, lut_hi); ++j) {
        if (lut_bin_dirty_[static_cast<std::size_t>(j)])
          dgs_.lut[static_cast<std::size_t>(j)] += prob * sn.weight;
      }
    }
  }

  int st_lo = s_ + 1, st_hi = 0;
  for (int j = 0; j <= s_; ++j) {
    if (st_bin_dirty_[static_cast<std::size_t>(j)]) {
      dgs_.storage[static_cast<std::size_t>(j)] = 0.0;
      st_lo = std::min(st_lo, j);
      st_hi = std::max(st_hi, j);
    }
  }
  if (st_lo <= st_hi) {
    for (std::size_t oi = 0; oi < ops_.size(); ++oi) {
      const StorageOp& op = ops_[oi];
      const int begin =
          frames_.asap[static_cast<std::size_t>(op.producer)];
      const int end = lifetime_under_ov(op, frames_.alap, -1, 0, s_).second;
      if (end < st_lo || begin > st_hi) continue;
      add_storage_distribution_ov(op, frames_.asap, frames_.alap, -1, 0,
                                  s_, &dgs_.storage, &st_bin_dirty_);
    }
    for (int j = std::max(1, st_lo); j <= st_hi; ++j) {
      if (st_bin_dirty_[static_cast<std::size_t>(j)])
        dgs_.storage[static_cast<std::size_t>(j)] +=
            graph_.num_plane_registers;
    }
  }
}

#ifdef NANOMAP_AUDIT_FDS
void FdsScheduler::audit_state(const std::vector<int>& stage_of) const {
  // Frames: the propagated frames must match a fresh full pass, and the
  // prev_* copies must have been resynced to them.
  TimeFrames fresh = compute_time_frames(graph_, stage_of);
  NM_CHECK_MSG(fresh.asap == frames_.asap && fresh.alap == frames_.alap &&
                   fresh.feasible == frames_.feasible,
               "audit: incremental frames diverged");
  NM_CHECK_MSG(prev_asap_ == frames_.asap && prev_alap_ == frames_.alap &&
                   prev_eff_a_ == eff_a_ && prev_eff_b_ == eff_b_,
               "audit: prev_ frames out of sync");

  // DGs: the dirty-bin rebuild must be bit-identical to a from-scratch
  // compute_dgs (not merely close — the rebuild re-sums each bin in the
  // same contributor order).
  DistributionGraphs ref = compute_dgs(graph_, ops_, stage_of, frames_);
  for (int j = 0; j <= s_; ++j) {
    NM_CHECK_MSG(ref.lut[static_cast<std::size_t>(j)] ==
                     dgs_.lut[static_cast<std::size_t>(j)],
                 "audit: LUT DG bin " << j << " diverged ("
                                      << dgs_.lut[static_cast<std::size_t>(j)]
                                      << " vs "
                                      << ref.lut[static_cast<std::size_t>(j)]
                                      << ")");
    NM_CHECK_MSG(
        ref.storage[static_cast<std::size_t>(j)] ==
            dgs_.storage[static_cast<std::size_t>(j)],
        "audit: storage DG bin " << j << " diverged");
  }

  // Forces: every cached row — dirty-scored or retained — must equal a
  // seed-style evaluation against materialized override vectors. This
  // validates both the single-entry override and the dirty-node cache.
  std::vector<int> asap2 = frames_.asap;
  std::vector<int> alap2 = frames_.alap;
  std::vector<double> before(static_cast<std::size_t>(s_) + 1, 0.0);
  std::vector<double> after(static_cast<std::size_t>(s_) + 1, 0.0);
  for (int i = 0; i < n_; ++i) {
    if (stage_of[static_cast<std::size_t>(i)] != 0) continue;
    const ScheduleNode& sn = graph_.nodes[static_cast<std::size_t>(i)];
    const int a = frames_.asap[static_cast<std::size_t>(i)];
    const int b = frames_.alap[static_cast<std::size_t>(i)];
    const double* row = &forces_[static_cast<std::size_t>(i) *
                                 (static_cast<std::size_t>(s_) + 1)];
    for (int j = a; j <= b; ++j) {
      double lut_self = frame_change_force(dgs_.lut, sn.weight, a, b, j, j);
      double storage_self = 0.0;
      bool infeasible = false;
      if (!ops_of_node_[static_cast<std::size_t>(i)].empty()) {
        asap2[static_cast<std::size_t>(i)] = j;
        alap2[static_cast<std::size_t>(i)] = j;
        std::fill(before.begin(), before.end(), 0.0);
        std::fill(after.begin(), after.end(), 0.0);
        for (int oi : ops_of_node_[static_cast<std::size_t>(i)]) {
          add_storage_distribution_ov(ops_[static_cast<std::size_t>(oi)],
                                      frames_.asap, frames_.alap, -1, 0, s_,
                                      &before);
          add_storage_distribution_ov(ops_[static_cast<std::size_t>(oi)],
                                      asap2, alap2, -1, 0, s_, &after);
        }
        for (int jj = 1; jj <= s_; ++jj)
          storage_self += dgs_.storage[static_cast<std::size_t>(jj)] *
                          (after[static_cast<std::size_t>(jj)] -
                           before[static_cast<std::size_t>(jj)]);
        asap2[static_cast<std::size_t>(i)] = a;
        alap2[static_cast<std::size_t>(i)] = b;
      }
      double total = std::max(lut_self / 1.0, storage_self / l_);
      for (int pr : sn.preds) {
        if (stage_of[static_cast<std::size_t>(pr)] != 0) continue;
        int gap = schedule_gap(graph_, pr, i);
        int pa = frames_.asap[static_cast<std::size_t>(pr)];
        int pb = frames_.alap[static_cast<std::size_t>(pr)];
        int nb = std::min(pb, j - gap);
        if (nb < pa) {
          infeasible = true;
          break;
        }
        if (nb != pb)
          total += frame_change_force(
              dgs_.lut, graph_.nodes[static_cast<std::size_t>(pr)].weight,
              pa, pb, pa, nb);
      }
      if (!infeasible) {
        for (int sc : sn.succs) {
          if (stage_of[static_cast<std::size_t>(sc)] != 0) continue;
          int gap = schedule_gap(graph_, i, sc);
          int sa = frames_.asap[static_cast<std::size_t>(sc)];
          int sb = frames_.alap[static_cast<std::size_t>(sc)];
          int na = std::max(sa, j + gap);
          if (na > sb) {
            infeasible = true;
            break;
          }
          if (na != sa)
            total += frame_change_force(
                dgs_.lut, graph_.nodes[static_cast<std::size_t>(sc)].weight,
                sa, sb, na, sb);
        }
      }
      double want = infeasible ? kInf : total;
      NM_CHECK_MSG(row[j] == want, "audit: cached force (" << i << "," << j
                                                           << ") diverged");
    }
  }
}
#endif  // NANOMAP_AUDIT_FDS

// ---------------------------------------------------------------------
// RefineTally
// ---------------------------------------------------------------------

RefineTally::RefineTally(const PlaneScheduleGraph& graph,
                         const std::vector<StorageOp>& ops,
                         const std::vector<std::vector<int>>& ops_of_node,
                         const ArchParams& arch,
                         const std::vector<int>& stage_of)
    : graph_(graph), ops_(ops), ops_of_node_(ops_of_node) {
  s_ = graph.num_stages;
  ff_per_le_ = arch.ff_per_le;
  FdsResult full;
  tally_stage_usage(graph, ops, arch, stage_of, &full);
  lut_count_ = std::move(full.lut_count);
  ff_count_ = std::move(full.ff_count);
  le_count_ = std::move(full.le_count);
  max_le_ = full.max_le;
  sq_ = 0;
  for (std::size_t j = 1; j < le_count_.size(); ++j) {
    long long v = le_count_[j];
    sq_ += v * v;
  }
  stage_stamp_.assign(static_cast<std::size_t>(s_) + 1, 0);
  undo_.reserve(static_cast<std::size_t>(s_) + 1);
}

void RefineTally::touch(int stage) {
  const std::size_t si = static_cast<std::size_t>(stage);
  if (stage_stamp_[si] == stamp_) return;
  stage_stamp_[si] = stamp_;
  undo_.push_back({stage, lut_count_[si], ff_count_[si], le_count_[si]});
}

std::pair<int, long long> RefineTally::apply_move(
    int i, int to, const std::vector<int>& stage_of) {
  const std::size_t ii = static_cast<std::size_t>(i);
  const int from = stage_of[ii];
  ++stamp_;
  undo_.clear();

  const int w = graph_.nodes[ii].weight;
  touch(from);
  touch(to);
  lut_count_[static_cast<std::size_t>(from)] -= w;
  lut_count_[static_cast<std::size_t>(to)] += w;

  // Flip-flop occupancy: only the lifetimes of ops touching i can move.
  for (int oi : ops_of_node_[ii]) {
    const StorageOp& op = ops_[static_cast<std::size_t>(oi)];
    auto [b0, e0] = lifetime_under_ov(op, stage_of, -1, 0, s_);
    auto [b1, e1] = lifetime_under_ov(op, stage_of, i, to, s_);
    if (b0 == b1 && e0 == e1) continue;
    for (int j = b0; j <= e0 - 1; ++j) {
      touch(j);
      ff_count_[static_cast<std::size_t>(j)] -= op.weight;
    }
    for (int j = b1; j <= e1 - 1; ++j) {
      touch(j);
      ff_count_[static_cast<std::size_t>(j)] += op.weight;
    }
  }

  long long new_sq = sq_;
  for (const Undo& u : undo_) {
    const std::size_t si = static_cast<std::size_t>(u.stage);
    int le = std::max(lut_count_[si],
                      (ff_count_[si] + ff_per_le_ - 1) / ff_per_le_);
    le_count_[si] = le;
    new_sq += static_cast<long long>(le) * le -
              static_cast<long long>(u.le) * u.le;
  }
  int new_max = 0;
  for (int j = 1; j <= s_; ++j)
    new_max = std::max(new_max, le_count_[static_cast<std::size_t>(j)]);
  return {new_max, new_sq};
}

void RefineTally::revert() {
  for (const Undo& u : undo_) {
    const std::size_t si = static_cast<std::size_t>(u.stage);
    lut_count_[si] = u.lut;
    ff_count_[si] = u.ff;
    le_count_[si] = u.le;
  }
}

std::pair<int, long long> RefineTally::metric_if_moved(
    int i, int to, const std::vector<int>& stage_of) {
  std::pair<int, long long> m = apply_move(i, to, stage_of);
  revert();
  return m;
}

void RefineTally::commit_move(int i, int to,
                              const std::vector<int>& stage_of) {
  std::pair<int, long long> m = apply_move(i, to, stage_of);
  max_le_ = m.first;
  sq_ = m.second;
}

}  // namespace nanomap
