// Static timing analysis over the placed (and optionally routed) design.
//
// Timing is per folding cycle: LUT arrival times propagate through the
// cycle's combinational logic; values arriving from flip-flops or from
// earlier cycles (stored results) enter at the cycle start plus their
// interconnect delay. The folding clock period is the worst cycle's
// critical path plus flip-flop setup, plus the NRAM reconfiguration time
// when folding is active; the circuit delay follows the paper's §4.1 model
// (plane cycle x number of planes).
//
// When no RoutingResult is supplied, inter-SMB net delays fall back to a
// Manhattan-distance model over the placement; routed delays are used
// otherwise.
#pragma once

#include <vector>

#include "core/temporal_cluster.h"
#include "place/placement.h"
#include "route/pathfinder.h"

namespace nanomap {

// One hop of the critical path (in arrival order).
struct PathElement {
  int node = -1;          // LutNetwork node id (source or LUT)
  double arrival_ps = 0;  // arrival at this element's output
};

struct TimingReport {
  std::vector<double> cycle_period_ps;  // per global cycle (logic + setup)
  int critical_cycle = 0;
  double folding_cycle_ns = 0.0;  // worst period + reconfiguration
  double circuit_delay_ns = 0.0;  // end-to-end (paper's "Delay" column)
  // The worst register-to-register path of the critical cycle, source
  // first (source may be a flip-flop, primary input or stored value).
  std::vector<PathElement> critical_path;
};

// Distance-based net delay estimate (the router-less fallback above).
double manhattan_net_delay_ps(const ArchParams& arch, int dx, int dy);

TimingReport analyze_timing(const Design& design,
                            const DesignSchedule& schedule,
                            const ClusteredDesign& cd,
                            const Placement& placement,
                            const RoutingResult* routing,
                            const ArchParams& arch);

}  // namespace nanomap
