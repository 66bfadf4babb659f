// Parallel design-space exploration over folding levels and fabric
// variants (DESIGN.md §5h; ROADMAP "parallel design-space exploration").
//
// run_nanomap's serial search tries candidate folding levels one at a
// time and commits to the first feasible one. run_nanomap_explore
// evaluates the *whole* candidate space — every folding level the serial
// search would consider, optionally crossed with fabric variants
// (channel widths, SMB sizes, NRAM depth k) — as independent cold flow
// jobs fanned out over one ThreadPool, then folds the results
// deterministically:
//
//  * Candidate order is fixed up front (level-major, base arch before
//    variants); every tie anywhere breaks toward the lowest index.
//  * Each candidate is one run_nanomap at a forced folding level on its
//    own arch, sharing no state with any other candidate, so every
//    counter and every result byte is identical at any --threads. The
//    pool is sized by slice_pool(threads, candidates); a 1-thread budget
//    runs the candidates inline, one after another.
//  * Each candidate arms its own fault plan and, when the sweep traces,
//    records into its own collector. After the pool joins, the
//    candidates' counters and values (not their spans) fold into the
//    sweep's collector in candidate order, so the sweep's span tree is
//    the single "explore" span.
//
// The winner is selected by the FlowOptions objective over *measured*
// results (not first-feasible-wins), and the report gains an `explore`
// section: per-candidate outcomes plus the Pareto front over
// (#LEs, delay, folding cycles).
#pragma once

#include "flow/nanomap_flow.h"

namespace nanomap {

// One fabric variant to cross with every candidate folding level. The
// base FlowOptions::arch is always variant 0; these are variants 1..N in
// the order given. Typical use: channel-width scalings, SMB sizes, or
// NRAM depths.
struct FabricVariant {
  std::string label;  // short suffix for candidate labels, e.g. "x1.25"
  ArchParams arch;
};

struct ExploreOptions {
  // Folding levels to evaluate. Empty = the levels run_nanomap's serial
  // search would try (candidate_folding_levels), which makes the
  // explorer a drop-in replacement for the serial search.
  std::vector<int> levels;

  // Fabric variants crossed with every level (see FabricVariant).
  std::vector<FabricVariant> variants;

  // Restrict FlowOptions::fault_plan to this candidate index (-1 = arm
  // it in every candidate). Either way each candidate counts hits in its
  // own FaultScope, so attribution is exact and deterministic.
  int fault_candidate = -1;
};

struct ExploreResult {
  // True when any candidate was feasible.
  bool feasible = false;
  int winner_index = -1;

  // Full flow result of the winning candidate (default-constructed
  // infeasible result when none won). Byte-identical to what
  // run_nanomap returns for that candidate alone.
  FlowResult winner;

  // Per-candidate full results, in candidate order (index == position).
  std::vector<FlowResult> results;

  // The explore section also embedded in `report`.
  ExploreReport explore;

  // Winner-based run report with the `explore` section attached;
  // report.levels_tried counts every candidate evaluated and
  // report.events merges every candidate's trail in candidate order.
  RunReport report;

  double wall_seconds = 0.0;
};

// Evaluates the candidate space and folds the results as documented
// above. Throws InputError on invalid options (same contract as
// run_nanomap); everything else returns a clean result.
ExploreResult run_nanomap_explore(const Design& design,
                                  const FlowOptions& flow,
                                  const ExploreOptions& explore = {});

}  // namespace nanomap
