// Reference PathFinder router: a copy of the seed-repo `route_design`
// plus the stall rule (kStallWindow), kept as the executable
// specification of the routing semantics.
//
// The kernel (route/pathfinder.cc) must produce *identical*
// route trees — same A* expansions, same negotiation schedule, same
// per-sink delays — for any (design, placement, RR graph, options). That
// contract is enforced three ways:
//   * tests/pathfinder_test.cc runs a randomized differential sweep of
//     route_design vs. route_nets_reference across seeds, folding levels
//     and channel widths, plus fuzzed ladder walks;
//   * tests/flow_robustness_test.cc re-routes recovered flow results with
//     this reference and byte-compares the winning rung's trees;
//   * bench/route_throughput asserts identical route trees while measuring
//     the wall-clock ratio between the two engines.
//
// This file intentionally preserves the seed's sequential rip-up-and-
// reroute of every net on every PathFinder iteration and its per-call RR
// occupancy rebuild — do not "optimize" it; its slowness is the baseline
// being measured.
#pragma once

#include "route/pathfinder.h"

namespace nanomap {

// Routes every folding cycle with the seed algorithm. Semantically
// identical to route_design (any divergence is a bug in the kernel).
RoutingResult route_nets_reference(const ClusteredDesign& cd,
                                   const Placement& placement,
                                   const RrGraph& rr,
                                   const RouterOptions& options = {});

}  // namespace nanomap
