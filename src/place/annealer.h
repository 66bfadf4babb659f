// Simulated-annealing engine for SMB placement (VPR-like schedule).
//
// Internal to nm_place; place/placement.cc drives it for the fast and
// detailed passes. The objective is the fixed-point cost of placement.h:
// NetBoxCache keeps one box per distinct SMB set (nets with the same
// {driver_smb} ∪ sink_smbs share it), each set carries W_set, the sum of
// its nets' quantized weights, and the cost is the int64
// Σ_set W_set · hpwl_set. A move merges the two swapped SMBs' sorted set
// lists and dry-runs each touched set's box (one member moves, in O(1)
// except for a shrink-edge rescan; a set holding both swapped SMBs keeps
// its box), summing delta = Σ W_set · (new_hpwl − hpwl) in the same pass.
// Integers are exact in any order, so the initial cost plus every
// accepted delta always equals a placement_cost() recompute.
//
// The move loop is allocation-free in steady state: the touched-set list
// and its dry-run boxes live in scratch arrays sized at construction.
//
// Building with -DNANOMAP_AUDIT_COST=ON (CMake option) cross-checks the
// incremental state against a from-scratch recompute at every temperature
// step: each cached set box must equal compute_box(), and cost() must
// equal placement_cost().
#pragma once

#include <cstdint>
#include <vector>

#include "place/net_bbox.h"
#include "place/placement.h"

namespace nanomap {

class Annealer {
 public:
  // The annealing walk is inherently sequential (each move's acceptance
  // depends on the previous state) and runs on the calling thread.
  // `legal` (optional) rejects moves that would park an SMB on a
  // defective site; the check runs after the move's coordinate draws and
  // before the acceptance draw, so an all-legal fabric consumes exactly
  // the historical RNG stream.
  Annealer(const ClusteredDesign& cd, const Placement& initial,
           double timing_weight, Rng* rng,
           const PlaceLegality* legal = nullptr);

  // Runs one full annealing schedule; `effort` scales moves per
  // temperature. Returns the best placement found.
  void run(double effort);

  const Placement& placement() const { return placement_; }
  // Fixed-point objective of the current placement: the initial
  // Σ W_set · hpwl_set plus every accepted delta.
  std::int64_t cost() const { return cost_; }
  long moves_attempted() const { return moves_attempted_; }
  long moves_accepted() const { return moves_accepted_; }

 private:
  // Attempts one swap/move at temperature t with displacement limit rlim;
  // returns true if accepted.
  bool try_move(double t, int rlim);
#ifdef NANOMAP_AUDIT_COST
  void audit_cost() const;
#endif

  const ClusteredDesign& cd_;
  Placement placement_;
  std::vector<int> smb_at_site_;  // site -> smb (-1 empty)
  NetBoxCache boxes_;
  // smb -> ids of the sets containing it, ascending, each list ending in
  // an INT_MAX sentinel for the branch-light swap-move merge.
  std::vector<std::vector<int>> sets_of_;
  std::vector<std::int64_t> set_weight_;  // set -> W_set
  double timing_weight_ = 0.0;
  std::int64_t cost_ = 0;
  Rng* rng_;
  const PlaceLegality* legal_ = nullptr;
  long moves_attempted_ = 0;
  long moves_accepted_ = 0;

  // Per-move scratch (preallocated; the move loop never allocates). Slot
  // k holds the k-th changed set's id and its dry-run box; acceptance
  // commits these into the cache, rejection just discards them (the
  // cached boxes were never written).
  std::vector<int> touched_sets_;
  std::vector<NetBox> touched_boxes_;
  int n_touched_ = 0;
#ifdef NANOMAP_AUDIT_COST
  // Audit builds verify each set is visited at most once per move.
  std::vector<std::uint64_t> set_stamp_;  // set -> last touching move
  std::uint64_t move_gen_ = 0;
#endif
};

}  // namespace nanomap
