// Temporal placement (paper §4.4, flow steps 9-14).
//
// SMBs are placed on a square grid of sites by simulated annealing, VPR
// style. Folding makes this *temporal* placement: the cost of a candidate
// placement sums, for every net, its half-perimeter bounding box in every
// folding cycle in which it is live (plus a timing weight), so SMB pairs
// that communicate in *any* cycle are pulled together — the generalization
// of the paper's inter-folding-stage Manhattan-distance term.
//
// Placement is the paper's two-step anneal on one annealer: a fast
// low-precision pass hot-started from a random placement, then a
// high-precision pass cool-started from the fast result, so it refines
// that result rather than melting it. Each pass stops at its exit
// temperature or once frozen (annealer.h). The flow routes every
// placement: PathFinder with its recovery ladder is the only congestion
// check (paper step 13).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/nature.h"
#include "core/temporal_cluster.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nanomap {

struct Placement {
  GridSize grid;
  std::vector<int> site_of_smb;  // smb -> site index (y * width + x)

  int x_of(int smb) const {
    return site_of_smb[static_cast<std::size_t>(smb)] % grid.width;
  }
  int y_of(int smb) const {
    return site_of_smb[static_cast<std::size_t>(smb)] / grid.width;
  }
};

// Weight of a net's timing criticality in its placement cost: the net
// weighs 1 + kTimingWeight * criticality.
inline constexpr double kTimingWeight = 0.8;

struct PlacementOptions {
  std::uint64_t seed = 42;
  // Moves per block per temperature step = effort * N^(4/3).
  double fast_effort = 1.0;
  double detailed_effort = 10.0;
  // Independent annealing restarts. Restart r anneals with RNG stream
  // derive_seed(seed, r); the lowest-cost result wins, ties broken by the
  // lowest restart index. The restart *count* — not the thread count —
  // determines the result: restarts are what the thread pool spreads
  // across cores. restarts = 1 is the historical single-chain placer.
  int restarts = 1;
};

// Defect legality for placement on an imperfect fabric (arch/defect.h):
// which SMBs may occupy which grid sites. An SMB may occupy a site iff
// the site's SMB logic is alive and every LE slot the SMB *actually
// configures* (across all folding cycles) is alive there — a dead slot
// only disqualifies SMBs that use it. With an inactive defect spec every
// site is legal and ok() is a constant-true fast path, so defect-free
// placement behaves byte-identically to the historical placer.
class PlaceLegality {
 public:
  PlaceLegality(const ClusteredDesign& cd, const ArchParams& arch,
                const GridSize& grid);

  bool active() const { return active_; }
  bool ok(int site, int smb) const {
    return !active_ ||
           ok_[static_cast<std::size_t>(site) *
                   static_cast<std::size_t>(num_smbs_) +
               static_cast<std::size_t>(smb)] != 0;
  }
  // Defect tallies over the whole grid (trace counters).
  long dead_smb_sites() const { return dead_smb_sites_; }
  long dead_le_slots() const { return dead_le_slots_; }
  // True when every SMB can claim a distinct legal site (bipartite
  // matching over the legality table). The flow turns a failure into
  // FlowErrorKind::kDefectInfeasible before attempting placement.
  bool feasible() const;

 private:
  int num_smbs_ = 0;
  int sites_ = 0;
  bool active_ = false;
  long dead_smb_sites_ = 0;
  long dead_le_slots_ = 0;
  std::vector<char> ok_;  // site-major: [site * num_smbs + smb]
};

// The SA objective is fixed point: each net's weight
// 1 + timing_weight * criticality is quantized to a multiple of
// 2^-kCostFracBits, so a cost is an exact int64 that sums to the same
// value in any order. It becomes a double (cost_to_double) only where it
// is reported.
inline constexpr int kCostFracBits = 20;
inline constexpr double kCostScale =
    static_cast<double>(std::int64_t{1} << kCostFracBits);
inline double cost_to_double(std::int64_t cost) {
  return static_cast<double>(cost) / kCostScale;
}

// Each net's quantized weight llround((1 + timing_weight * criticality) *
// kCostScale), in net order. NM_CHECKs that each weight lies in
// [0, 2^32) and that no cost on `grid` can leave the int64 range: the
// weights' sum times the grid's largest hpwl.
std::vector<std::int64_t> quantized_net_weights(const ClusteredDesign& cd,
                                                double timing_weight,
                                                const GridSize& grid);

struct PlacementResult {
  Placement placement;
  double cost = 0.0;        // cost_to_double(placement_cost(...))
  double wirelength = 0.0;  // unweighted HPWL sum
  long moves_attempted = 0;
  long moves_accepted = 0;
  int winning_restart = 0;  // which seed stream produced this placement
};

// Weighted multi-cycle HPWL of a full placement (the SA objective) in
// fixed point: each net's quantized weight times its hpwl, recomputed from
// the pins.
std::int64_t placement_cost(const ClusteredDesign& cd,
                            const Placement& placement,
                            double timing_weight);

// Full two-step placement of a clustered design. With options.restarts >
// 1 the independent restarts run as pool tasks (when a pool is given);
// the returned placement is a pure function of (cd, arch, options) —
// never of the pool or its size.
PlacementResult place_design(const ClusteredDesign& cd,
                             const ArchParams& arch,
                             const PlacementOptions& options = {},
                             ThreadPool* pool = nullptr);

}  // namespace nanomap
