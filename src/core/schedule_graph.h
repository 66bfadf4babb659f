// Per-plane scheduling graph for force-directed scheduling.
//
// After a folding level p is chosen, each plane's content becomes a DAG of
// *scheduling nodes* (paper §3/§4.1):
//   * every RTL module is partitioned into LUT clusters — cluster c holds
//     the module's LUTs at module-relative depth ((c-1)p, cp] — and each
//     cluster is scheduled as a unit;
//   * every loose LUT (controller logic, gate-level input) is its own node.
//
// Mutually-dependent clusters (possible when module level ranges
// interleave) are merged via strongly-connected components so the graph is
// a DAG; a merged node whose level span exceeds p makes this folding level
// infeasible, which the flow reports upward.
//
// Time frames are computed in *level space*: each node occupies
// `span = level_end - level_begin + 1` contiguous LUT levels that must fit
// inside a single folding stage (p levels per stage). The ASAP/ALAP passes
// therefore let dependent single LUTs share a stage when the level budget
// allows — exactly what the paper's Fig. 1(c) mapping does — while a
// full-depth cluster still occupies a stage of its own.
#pragma once

#include <string>
#include <vector>

#include "core/folding.h"
#include "netlist/rtl_netlist.h"

namespace nanomap {

// Consumers of a node's values that live outside the plane's combinational
// logic (flip-flops capturing plane outputs, primary outputs). They anchor
// storage lifetimes at the last folding stage.
struct ScheduleNode {
  int id = -1;
  bool is_cluster = false;
  int module_id = -1;     // owning RTL module (clusters only)
  int cluster_index = 0;  // slice number within the module
  std::vector<int> luts;  // member LUT node ids (size 1 for loose LUTs)
  int weight = 1;         // #LUTs (the paper's weight_i)
  int level_begin = 1;    // structural LUT levels spanned (within plane)
  int level_end = 1;
  // Stage window the node's levels naturally fall into (1-based). Edges
  // always go slice-nondecreasing; the minimum stage gap between dependent
  // nodes is the slice difference.
  int slice = 1;
  std::vector<int> preds;  // schedule-node ids
  std::vector<int> succs;
  // Member LUTs whose value is consumed outside this node in a (possibly)
  // later stage, or captured by a flip-flop / primary output. Storage
  // operations are created for these.
  int num_stored_outputs = 0;
  bool feeds_flipflop = false;  // some member LUT drives a FF or PO

  int span() const { return level_end - level_begin + 1; }
  std::string debug_name;
};

struct PlaneScheduleGraph {
  int plane = 0;
  int folding_level = 1;   // p
  int num_stages = 1;      // S
  bool feasible = true;    // false if a merged node span exceeds p
  std::vector<ScheduleNode> nodes;
  // Per-LUT owning schedule node (indexed by LutNetwork node id; -1 for
  // LUTs of other planes / non-LUT nodes).
  std::vector<int> node_of_lut;
  int num_plane_registers = 0;  // flip-flops feeding this plane
};

// Builds the scheduling graph for one plane of a levelized design.
PlaneScheduleGraph build_schedule_graph(const Design& design, int plane,
                                        const FoldingConfig& cfg);

// Level-aware time frames. stage_of[i] == 0 means unscheduled; otherwise
// the node is pinned to that stage (1-based).
struct TimeFrames {
  std::vector<int> asap;  // earliest feasible stage per node (1-based)
  std::vector<int> alap;  // latest feasible stage per node
  bool feasible = true;   // false if pins violate precedence/level budget
};

// The full pass. The FDS kernel keeps the same frames current under pins
// with IncrementalFrames (core/fds_kernel.h); this stays the oracle.
TimeFrames compute_time_frames(const PlaneScheduleGraph& graph,
                               const std::vector<int>& stage_of);

// Kahn topological order of the schedule graph. Depends only on the graph
// (never on pins).
std::vector<int> topological_order(const PlaneScheduleGraph& graph);

// Minimum stage separation between dependent nodes a -> b: 0 when they can
// share a folding stage (same window slice — the combinational chain fits
// in p levels at natural alignment), otherwise the slice difference.
int schedule_gap(const PlaneScheduleGraph& graph, int a, int b);

}  // namespace nanomap
