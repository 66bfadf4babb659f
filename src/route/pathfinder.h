// PathFinder negotiated-congestion router over the NATURE RR graph
// (paper §4.4, flow step 15; McMurchie & Ebeling's algorithm as used by
// VPR's router).
//
// Temporal folding makes routing per-folding-cycle: the interconnect
// reconfigures between cycles, so each global cycle is routed as an
// independent congestion domain on the same RR graph, and a switch's k-set
// NRAM holds one configuration per cycle. Within a cycle the router
// iterates rip-up-and-reroute with growing present-congestion and
// accumulated history costs until no node is over capacity, its
// iteration budget is spent, or its overuse stalls (kStallWindow).
//
// The hierarchical preference (direct links, then length-1, length-4,
// global) emerges from the nodes' base costs and delays.
//
// Kernel (DESIGN.md §5g). The router is byte-identical to the seed
// algorithm (kept alive as route_nets_reference): every iteration
// re-searches every net of the cycle, and every route_design call routes
// every folding cycle from scratch; nothing is cached across iterations,
// cycles or calls.
// Cycles being independent, route_design negotiates them concurrently
// when handed a pool: a serial pre-pass in cycle order sorts each cycle's
// sinks, the non-empty cycles run one task each, and a serial fold in
// cycle order emits routes and trace records. Within a cycle the
// negotiation stays sequential, so every tree is the same pure function
// at any pool width.
// Building with -DNANOMAP_AUDIT_ROUTE=ON (CMake option, wired into the
// tsan preset) cross-checks every route_design call against the reference
// router, bit-exact.
#pragma once

#include <string>
#include <vector>

#include "place/placement.h"
#include "route/rr_graph.h"

namespace nanomap {

class ThreadPool;

// The stall rule (DESIGN.md §5g): a folding cycle gives up once its
// overused-node count has not reached a new strict minimum in this many
// consecutive iterations. It reads only the cycle's own history, so the
// trees stay a pure function of the inputs. Shared by route_design and
// route_nets_reference; no option sets it.
inline constexpr int kStallWindow = 10;

struct RouterOptions {
  int max_iterations = 60;       // per folding cycle
  double initial_pres_fac = 0.6;
  double pres_fac_mult = 1.8;
  double hist_fac = 0.8;
};

// Routed path delays for one net (one entry per sink SMB).
struct NetRoute {
  int net_index = -1;  // index into ClusteredDesign::nets
  std::vector<int> sink_smbs;
  std::vector<double> sink_delay_ps;   // pin-to-pin routed delay
  std::vector<int> wire_nodes;         // RR nodes used (deduplicated)
};

struct WireUsage {
  long direct = 0;
  long len1 = 0;
  long len4 = 0;
  long global = 0;
  long total() const { return direct + len1 + len4 + global; }
};

struct RoutingResult {
  bool success = true;     // all cycles legal (no overuse)
  int worst_iterations = 0;
  long overused_nodes = 0; // residual overuse across cycles (0 on success)
  std::vector<NetRoute> nets;
  WireUsage usage;         // wire-node occupancy summed over all cycles
};

// Routes every folding cycle. The routed trees are a pure function of
// (cd, placement, rr, options) — never of the width of `pool`. A non-null
// `pool` negotiates the non-empty cycles concurrently; a null or 1-thread
// pool runs them inline. When cycles throw, the lowest one's exception is
// rethrown.
RoutingResult route_design(const ClusteredDesign& cd,
                           const Placement& placement, const RrGraph& rr,
                           const RouterOptions& options = {},
                           ThreadPool* pool = nullptr);

// Structural audit of a routing result against the design it routes:
// every net present exactly once; every route a connected tree rooted at
// the driver OPIN that reaches all sink IPINs with no orphaned wire
// nodes; per-cycle occupancy within capacity when the result claims
// success. Returns false and fills `why` (if given) on the first
// violation.
bool validate_routing(const ClusteredDesign& cd, const Placement& placement,
                      const RrGraph& rr, const RoutingResult& result,
                      std::string* why = nullptr);

}  // namespace nanomap
