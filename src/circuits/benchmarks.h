// The seven benchmark designs of the paper's §5, rebuilt structurally.
//
// The paper characterizes each benchmark only through Table 1 columns 2-5
// (#planes, max plane depth, #LUTs, #flip-flops); the actual netlists are
// not published (ex2/Paulin come from [19], ASPP4 from [20], c5315 from
// ISCAS'85). Each generator here reconstructs the documented *structure* —
// controller/datapath composition, plane count, operator mix — with widths
// chosen so the resulting parameters land close to the paper's (the
// paper-vs-built numbers are recorded in EXPERIMENTS.md and pinned by
// tests/benchmarks_test.cc).
//
//   ex1    — Fig. 1 controller/datapath (16-bit): 2-FF FSM + 4 control
//            LUTs, ripple adder, array multiplier; 1 plane.
//   FIR    — transversal filter: registered delay line + coefficient
//            registers, multiplier per tap, adder tree; 1 plane.
//   ex2    — 3-plane RTL circuit (controller/datapath mix per [19]).
//   c5315  — gate-level 9-bit ALU in the spirit of ISCAS'85 c5315, mapped
//            through FlowMap; combinational (0 FFs), 1 plane.
//   Biquad — direct-form-I second-order IIR section: 5 multipliers + 4
//            adders; 1 plane.
//   Paulin — the classic differential-equation solver HLS benchmark;
//            2 planes.
//   ASPP4  — application-specific programmable processor datapath [20];
//            2 planes.
#pragma once

#include <string>
#include <vector>

#include "map/gate_network.h"
#include "netlist/rtl_netlist.h"

namespace nanomap {

Design make_ex1(int width = 16);
Design make_fir(int taps = 4, int width = 12);
Design make_ex2(int width = 16);
Design make_c5315(int width = 9);
// c5315's gate network before FlowMap (make_c5315 maps it into 4-LUTs).
GateNetwork make_c5315_gates(int width = 9);
Design make_biquad(int width = 16);
Design make_paulin(int width = 16);
Design make_aspp4(int width = 16);

// Also the 4-bit motivational version of ex1 used in the paper's §3
// walk-through (50 LUTs / 14 FFs in the paper's counting).
inline Design make_ex1_motivational() { return make_ex1(4); }

// Paper-reported circuit parameters (Table 1 columns 2-5) for comparison.
struct PaperCircuitRow {
  const char* name;
  int planes;
  int max_depth;
  int luts;
  int flipflops;
  double nofold_delay_ns;
  double fold_les_k_enough;
  double fold_delay_k_enough;
};

// All seven benchmarks with their default parameters, in Table 1 order.
std::vector<std::string> benchmark_names();
Design make_benchmark(const std::string& name);
const PaperCircuitRow& paper_row(const std::string& name);

}  // namespace nanomap
