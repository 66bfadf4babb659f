// Simulated-annealing engine for SMB placement (VPR-like schedule).
//
// Internal to nm_place; place/placement.cc drives it for the fast and
// detailed passes. Cost evaluation is incremental on top of NetBoxCache,
// which keys its boxes by *distinct SMB set*: nets with the same
// {driver_smb} ∪ sink_smbs share one box. A move runs two passes over the
// two swapped SMBs' sorted incident lists:
//
//   1. merge their set lists and dry-run each touched set's box (one
//      member moves, in O(1) except for a shrink-edge rescan; a set
//      holding both swapped SMBs keeps its box);
//   2. merge their net lists in ascending net order and sum
//      before += w[n] * hpwl[set[n]] and after += w[n] * new_hpwl[set[n]].
//
// Why this is exact. A net's bounding box depends only on its SMB set, so
// hpwl[set[n]] is the same integer the per-net box of net n would hold,
// and each net's cost is the same w × double(hpwl) product. The sums run
// over the same nets in the same ascending order with mul-then-add (the
// build sets no -march, so nothing contracts into an FMA). So every delta
// — and therefore every RNG draw, accept decision and final placement —
// is bit-identical to the per-net annealer, and to the historical
// recompute-from-scratch one. When no touched set's hpwl changes, the two
// sums are identical, delta is exactly 0.0 and pass 2 is skipped.
//
// The move loop is allocation-free in steady state: the touched-set list
// and its dry-run boxes live in scratch arrays sized at construction.
//
// Building with -DNANOMAP_AUDIT_COST=ON (CMake option) cross-checks the
// incremental state against a from-scratch recompute at every temperature
// step: each cached set box must equal compute_box(), and cost() must
// equal placement_cost() bit-exactly.
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
  // Exact objective of the current placement: weighted HPWL summed from
  // the cached set boxes in net order, bit-identical to a
  // placement_cost() recompute. O(#nets); intended for end-of-anneal
  // reporting and audits, not the move loop.
  double cost() const;
  // The incrementally accumulated objective (initial cost plus every
  // accepted delta, in move order). Tracks cost() up to floating-point
  // accumulation rounding; the annealing schedule reads this one.
  double running_cost() const { return cost_; }
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
  // smb -> ids of the sets containing it, ascending; smb -> nets whose
  // set contains it, ascending (the order that keeps the move's cost
  // sums in net order). Each list ends in an INT_MAX sentinel for the
  // branch-light swap-move merge.
  std::vector<std::vector<int>> sets_of_;
  std::vector<std::vector<int>> nets_of_;
  // net -> its cost weight (1 + timing_weight * criticality) and set id,
  // packed so the net pass loads both from one cache line.
  struct NetTerm {
    double weight = 0.0;
    int set = 0;
  };
  std::vector<NetTerm> terms_;
  double timing_weight_ = 0.0;
  double cost_ = 0.0;
  Rng* rng_;
  const PlaceLegality* legal_ = nullptr;
  long moves_attempted_ = 0;
  long moves_accepted_ = 0;

  // Per-move scratch (preallocated; the move loop never allocates). Slot
  // k holds the k-th changed set's id and its dry-run box; acceptance
  // commits these into the cache, rejection just discards them (the
  // cached boxes were never written). new_hpwl_ maps every set the move
  // touched to its post-move hpwl, read by the net pass.
  std::vector<int> touched_sets_;
  std::vector<NetBox> touched_boxes_;
  int n_touched_ = 0;
  std::vector<int> new_hpwl_;
#ifdef NANOMAP_AUDIT_COST
  // Audit builds verify each set is visited at most once per move.
  std::vector<std::uint64_t> set_stamp_;  // set -> last touching move
  std::uint64_t move_gen_ = 0;
#endif
};

}  // namespace nanomap
