#include "circuits/benchmarks.h"

#include <algorithm>

#include "map/flowmap.h"
#include "map/gate_network.h"
#include "rtl/module_expander.h"
#include "util/check.h"

namespace nanomap {
namespace {

// Finishes a design: levelize, validate, record module stats.
Design seal(Design design) {
  design.net.compute_levels();
  design.net.validate();
  design.refresh_module_stats();
  return design;
}

std::uint64_t tt_parity(int n) {
  return make_truth(n, [n](const bool* b) {
    bool v = false;
    for (int i = 0; i < n; ++i) v ^= b[i];
    return v;
  });
}

std::uint64_t tt_maj(int n) {
  return make_truth(n, [n](const bool* b) {
    int c = 0;
    for (int i = 0; i < n; ++i) c += b[i] ? 1 : 0;
    return 2 * c > n;
  });
}

SignalBus low_half(const SignalBus& bus, std::size_t n) {
  NM_CHECK(bus.size() >= n);
  return SignalBus(bus.begin(), bus.begin() + static_cast<long>(n));
}

}  // namespace

Design make_ex1(int width) {
  NM_CHECK(width >= 2);
  Design d;
  d.name = (width == 16) ? "ex1" : ("ex1_w" + std::to_string(width));
  const std::size_t n = static_cast<std::size_t>(width);

  // Datapath inputs and plane registers (Fig. 1(a)).
  SignalBus a = add_input_bus(d, "a", width, 0);
  SignalBus b = add_input_bus(d, "b", width, 0);
  SignalBus reg1 = add_register_bank(d, "reg1", width, 0);
  SignalBus reg2 = add_register_bank(d, "reg2", width, 0);
  SignalBus reg3 = add_register_bank(d, "reg3", width, 0);
  // Controller state flip-flops.
  int s0 = d.net.add_flipflop("s0", 0);
  int s1 = d.net.add_flipflop("s1", 0);

  // Ripple-carry adder and full-width parallel multiplier, side by side as
  // in Fig. 1(a)'s datapath.
  ExpandedModule add = expand_adder(d, "add", reg1, reg2, 0);
  ExpandedModule mul =
      expand_multiplier(d, "mul", reg2, reg3, 0, /*full_width=*/true);

  // Controller: LUT1/LUT2 compute the next state, LUT3/LUT4 observe the
  // datapath result (giving the plane its +2 depth over the multiplier, as
  // in the paper's depth-9 4-bit walk-through).
  int lut1 = d.net.add_lut("LUT1", {s0, s1, a[0]}, tt_maj(3), 0);
  int lut2 = d.net.add_lut("LUT2", {s0, s1, b[0]}, tt_parity(3), 0);
  int lut3 = d.net.add_lut(
      "LUT3", {mul.out[2 * n - 1], s0, s1}, tt_parity(3), 0);
  int lut4 = d.net.add_lut("LUT4", {lut3, mul.out[0], s1}, tt_maj(3), 0);

  drive_register_bank(d, reg1, a);
  drive_register_bank(d, reg2, b);
  drive_register_bank(d, reg3, low_half(mul.out, n));
  d.net.set_flipflop_input(s0, lut1);
  d.net.set_flipflop_input(s1, lut2);

  add_output_bus(d, "p", mul.out);
  add_output_bus(d, "sum", add.out);
  d.net.add_output("done", lut4);
  return seal(d);
}

Design make_fir(int taps, int width) {
  NM_CHECK(taps >= 2 && width >= 2);
  Design d;
  d.name = "FIR";

  SignalBus x = add_input_bus(d, "x", width, 0);

  // Registered delay line and coefficient registers (coefficients hold
  // their value: D = Q).
  std::vector<SignalBus> delay(static_cast<std::size_t>(taps));
  std::vector<SignalBus> coeff(static_cast<std::size_t>(taps));
  for (int t = 0; t < taps; ++t) {
    delay[static_cast<std::size_t>(t)] =
        add_register_bank(d, "xd" + std::to_string(t), width, 0);
    coeff[static_cast<std::size_t>(t)] =
        add_register_bank(d, "c" + std::to_string(t), width, 0);
    drive_register_bank(d, coeff[static_cast<std::size_t>(t)],
                        coeff[static_cast<std::size_t>(t)]);
  }
  drive_register_bank(d, delay[0], x);
  for (int t = 1; t < taps; ++t) {
    drive_register_bank(d, delay[static_cast<std::size_t>(t)],
                        delay[static_cast<std::size_t>(t) - 1]);
  }

  // One multiplier per tap, then a balanced adder tree.
  std::vector<SignalBus> terms;
  for (int t = 0; t < taps; ++t) {
    ExpandedModule m = expand_multiplier(
        d, "m" + std::to_string(t), delay[static_cast<std::size_t>(t)],
        coeff[static_cast<std::size_t>(t)], 0);
    terms.push_back(m.out);
  }
  int adder_idx = 0;
  while (terms.size() > 1) {
    std::vector<SignalBus> next;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      ExpandedModule s = expand_adder(d, "sum" + std::to_string(adder_idx++),
                                      terms[i], terms[i + 1], 0);
      next.push_back(s.out);
    }
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = next;
  }

  SignalBus y = add_register_bank(d, "y", width, 0);
  drive_register_bank(d, y, terms[0]);
  add_output_bus(d, "yout", y);
  return seal(d);
}

Design make_ex2(int width) {
  NM_CHECK(width >= 2);
  Design d;
  d.name = "ex2";

  // Plane 0: multiply/accumulate stage with a small FSM.
  SignalBus a = add_input_bus(d, "a", width, 0);
  SignalBus b = add_input_bus(d, "b", width, 0);
  SignalBus r0a = add_register_bank(d, "r0a", width, 0);
  SignalBus r0b = add_register_bank(d, "r0b", width, 0);
  drive_register_bank(d, r0a, a);
  drive_register_bank(d, r0b, b);
  int s0 = d.net.add_flipflop("s0", 0);
  int s1 = d.net.add_flipflop("s1", 0);

  ExpandedModule mul0 = expand_multiplier(d, "mul0", r0a, r0b, 0);
  ExpandedModule add0 = expand_adder(d, "add0", r0a, r0b, 0);
  int fsm0 = d.net.add_lut("fsm0", {s0, s1, add0.out[0]}, tt_maj(3), 0);
  int fsm1 = d.net.add_lut("fsm1", {s0, s1, mul0.out[0]}, tt_parity(3), 0);
  d.net.set_flipflop_input(s0, fsm0);
  d.net.set_flipflop_input(s1, fsm1);

  // Plane 1: compare/select stage.
  SignalBus r1a = add_register_bank(d, "r1a", width, 1);
  SignalBus r1b = add_register_bank(d, "r1b", width, 1);
  drive_register_bank(d, r1a, mul0.out);
  drive_register_bank(d, r1b, add0.out);

  ExpandedModule mul1 = expand_multiplier(d, "mul1", r1a, r1b, 1);
  ExpandedModule cmp1 = expand_comparator(d, "cmp1", r1a, r1b, 1);
  ExpandedModule mux1 = expand_mux2(d, "mux1", cmp1.out[0], mul1.out, r1a, 1);

  // Plane 2: final accumulate.
  SignalBus r2a = add_register_bank(d, "r2a", width, 2);
  SignalBus r2b = add_register_bank(d, "r2b", width, 2);
  drive_register_bank(d, r2a, mux1.out);
  drive_register_bank(d, r2b, r1b);

  ExpandedModule add2 = expand_adder(d, "add2", r2a, r2b, 2);
  ExpandedModule sub2 = expand_subtractor(d, "sub2", r2a, r2b, 2);
  ExpandedModule mux2 =
      expand_mux2(d, "mux2", sub2.out[static_cast<std::size_t>(width) - 1],
                  add2.out, sub2.out, 2);

  add_output_bus(d, "res", mux2.out);
  return seal(d);
}

GateNetwork make_c5315_gates(int width) {
  NM_CHECK(width >= 4);
  // Gate-level 9-bit ALU in the spirit of ISCAS'85 c5315 (multiple
  // arithmetic/logic sections, barrel shifting, parity and shared output
  // selection).
  GateNetwork g;

  auto make_bus = [&](const std::string& name, int w) {
    Bus bus;
    for (int i = 0; i < w; ++i)
      bus.push_back(g.add_input(name + std::to_string(i)));
    return bus;
  };

  Bus a = make_bus("a", width);
  Bus b = make_bus("b", width);
  Bus c = make_bus("c", width);
  Bus e = make_bus("e", width);
  Bus f = make_bus("f", width);
  Bus hh = make_bus("h", width);
  int ctl0 = g.add_input("ctl0");
  int ctl1 = g.add_input("ctl1");
  int ctl2 = g.add_input("ctl2");
  int sh0 = g.add_input("sh0");
  int sh1 = g.add_input("sh1");

  auto alu_section = [&](const Bus& x, const Bus& y, const std::string& tag) {
    Bus y_inv;
    for (std::size_t i = 0; i < y.size(); ++i) {
      y_inv.push_back(g.add_gate(GateOp::kXor,
                                 tag + "_yi" + std::to_string(i),
                                 {y[i], ctl0}));
    }
    int cout = -1;
    Bus sum = build_gate_adder(g, x, y_inv, tag + "_add", &cout);
    Bus land = build_gate_bitwise(g, GateOp::kAnd, x, y, tag + "_and");
    Bus lor = build_gate_bitwise(g, GateOp::kOr, x, y, tag + "_or");
    Bus lxor = build_gate_bitwise(g, GateOp::kXor, x, y, tag + "_xor");
    Bus m0 = build_gate_mux(g, ctl1, sum, land, tag + "_m0");
    Bus m1 = build_gate_mux(g, ctl1, lor, lxor, tag + "_m1");
    Bus out = build_gate_mux(g, ctl2, m0, m1, tag + "_m2");
    int par = out[0];
    for (std::size_t i = 1; i < out.size(); ++i) {
      par = g.add_gate(GateOp::kXor, tag + "_par" + std::to_string(i),
                       {par, out[i]});
    }
    out.push_back(par);
    out.push_back(cout);
    return out;
  };

  // Barrel shifter: rotate by {0,1,2,3} under sh1:sh0.
  auto barrel = [&](const Bus& x, const std::string& tag) {
    auto rot = [&](const Bus& in, int by) {
      Bus out(in.size());
      for (std::size_t i = 0; i < in.size(); ++i)
        out[i] = in[(i + static_cast<std::size_t>(by)) % in.size()];
      return out;
    };
    Bus s1m = build_gate_mux(g, sh0, x, rot(x, 1), tag + "_s1");
    return build_gate_mux(g, sh1, s1m, rot(s1m, 2), tag + "_s2");
  };

  auto trim = [&](const Bus& bus) {
    return Bus(bus.begin(), bus.begin() + width);
  };

  // Four two-deep ALU chains: each second section consumes the first's
  // result, which keeps the per-level LUT width roughly uniform (the real
  // c5315 is a balanced ~55-LUT-per-level netlist, not a single wide
  // stage).
  Bus ch0 = alu_section(trim(alu_section(a, b, "s0a")), c, "s0b");
  Bus ch1 = alu_section(trim(alu_section(c, e, "s1a")), f, "s1b");
  Bus ch2 = alu_section(trim(alu_section(f, hh, "s2a")), a, "s2b");
  Bus ch3 = alu_section(trim(alu_section(e, a, "s3a")), b, "s3b");

  Bus sh_a = barrel(trim(ch0), "ba");
  Bus sh_b = barrel(trim(ch1), "bb");

  int xsel0 = g.add_gate(GateOp::kXor, "xsel0",
                         {ch0[ch0.size() - 2], ch1[ch1.size() - 2]});
  int xsel1 = g.add_gate(GateOp::kXor, "xsel1",
                         {ch2[ch2.size() - 2], ch3[ch3.size() - 2]});
  Bus comb0 = build_gate_mux(g, xsel0, sh_a, trim(ch2), "xc0");
  Bus comb1 = build_gate_mux(g, xsel1, sh_b, trim(ch3), "xc1");
  int cout_f0 = -1;
  int cout_f1 = -1;
  Bus fin0 = build_gate_adder(g, comb0, trim(ch3), "fadd0", &cout_f0);
  Bus fin1 = build_gate_adder(g, comb1, trim(ch0), "fadd1", &cout_f1);

  for (std::size_t i = 0; i < fin0.size(); ++i)
    g.add_output("z" + std::to_string(i), fin0[i]);
  for (std::size_t i = 0; i < fin1.size(); ++i)
    g.add_output("w" + std::to_string(i), fin1[i]);
  g.add_output("zc", cout_f0);
  g.add_output("wc", cout_f1);
  for (std::size_t i = 0; i < ch1.size(); ++i)
    g.add_output("q" + std::to_string(i), ch1[i]);
  for (std::size_t i = 0; i < ch2.size(); ++i)
    g.add_output("r" + std::to_string(i), ch2[i]);

  return g;
}

Design make_c5315(int width) {
  FlowMapResult mapped = flowmap(make_c5315_gates(width), 4);
  Design d;
  d.name = "c5315";
  d.net = std::move(mapped.net);
  return seal(std::move(d));
}

Design make_biquad(int width) {
  NM_CHECK(width >= 2);
  Design d;
  d.name = "Biquad";

  // Direct-form-I second-order section:
  //   y = b0*x + b1*x1 + b2*x2 - a1*y1 - a2*y2
  // Coefficients arrive as primary inputs; data taps are registered.
  SignalBus x = add_input_bus(d, "x", width, 0);
  SignalBus b0 = add_input_bus(d, "b0", width, 0);
  SignalBus b1 = add_input_bus(d, "b1", width, 0);
  SignalBus b2 = add_input_bus(d, "b2", width, 0);
  SignalBus a1 = add_input_bus(d, "a1", width, 0);
  SignalBus a2 = add_input_bus(d, "a2", width, 0);

  SignalBus xr = add_register_bank(d, "xr", width, 0);
  SignalBus x1 = add_register_bank(d, "x1", width, 0);
  SignalBus x2 = add_register_bank(d, "x2", width, 0);
  SignalBus y1 = add_register_bank(d, "y1", width, 0);
  SignalBus y2 = add_register_bank(d, "y2", width, 0);

  ExpandedModule p0 = expand_multiplier(d, "p0", xr, b0, 0);
  ExpandedModule p1 = expand_multiplier(d, "p1", x1, b1, 0);
  ExpandedModule p2 = expand_multiplier(d, "p2", x2, b2, 0);
  ExpandedModule p3 = expand_multiplier(d, "p3", y1, a1, 0);
  ExpandedModule p4 = expand_multiplier(d, "p4", y2, a2, 0);

  ExpandedModule s1 = expand_adder(d, "s1", p0.out, p1.out, 0);
  ExpandedModule s2 = expand_adder(d, "s2", s1.out, p2.out, 0);
  ExpandedModule s3 = expand_adder(d, "s3", p3.out, p4.out, 0);
  ExpandedModule y = expand_subtractor(d, "y", s2.out, s3.out, 0);

  drive_register_bank(d, xr, x);
  drive_register_bank(d, x1, xr);
  drive_register_bank(d, x2, x1);
  drive_register_bank(d, y1, y.out);
  drive_register_bank(d, y2, y1);

  add_output_bus(d, "yout", y.out);
  return seal(d);
}

Design make_paulin(int width) {
  NM_CHECK(width >= 2);
  Design d;
  d.name = "Paulin";

  // Differential-equation solver (Paulin & Knight HLS benchmark):
  //   x' = x + dx;  y' = y + u*dx;  u' = u - 3*x*u*dx - 3*y*dx
  // Split across two planes as a two-state controller/datapath.
  SignalBus dx = add_input_bus(d, "dx", width, 0);
  SignalBus xr = add_register_bank(d, "x", width, 0);
  SignalBus yr = add_register_bank(d, "y", width, 0);
  SignalBus ur = add_register_bank(d, "u", width, 0);

  // Plane 0: the products u*dx, x*u, y*dx and x+dx.
  ExpandedModule udx = expand_multiplier(d, "udx", ur, dx, 0);
  ExpandedModule xu = expand_multiplier(d, "xu", xr, ur, 0);
  ExpandedModule ydx = expand_multiplier(d, "ydx", yr, dx, 0);
  ExpandedModule xnew = expand_adder(d, "xnew", xr, dx, 0);

  // 3*t computed as (t << 1) + t; the shift is wiring.
  auto times3 = [&](const SignalBus& t, const std::string& name, int plane) {
    SignalBus hi_a(t.begin() + 1, t.end());   // t bits 1..n-1
    SignalBus hi_b(t.begin(), t.end() - 1);   // (t<<1) bits 1..n-1
    ExpandedModule s = expand_adder(d, name, hi_a, hi_b, plane);
    SignalBus out;
    out.push_back(t[0]);
    for (int bit : s.out) out.push_back(bit);
    return out;
  };

  SignalBus xu3 = times3(xu.out, "xu3", 0);
  SignalBus ydx3 = times3(ydx.out, "ydx3", 0);

  // Plane 1 registers carry the plane-0 results.
  SignalBus r_udx = add_register_bank(d, "r_udx", width, 1);
  SignalBus r_xu3 = add_register_bank(d, "r_xu3", width, 1);
  SignalBus r_ydx3 = add_register_bank(d, "r_ydx3", width, 1);
  SignalBus r_u = add_register_bank(d, "r_u", width, 1);
  SignalBus r_y = add_register_bank(d, "r_y", width, 1);
  SignalBus r_dx = add_register_bank(d, "r_dx", width, 1);
  drive_register_bank(d, r_udx, udx.out);
  drive_register_bank(d, r_xu3, low_half(xu3, static_cast<std::size_t>(width)));
  drive_register_bank(d, r_ydx3,
                      low_half(ydx3, static_cast<std::size_t>(width)));
  drive_register_bank(d, r_u, ur);
  drive_register_bank(d, r_y, yr);
  drive_register_bank(d, r_dx, dx);

  // Plane 1: u' = u - (3*x*u)*dx - 3*y*dx ; y' = y + u*dx; plus the
  // step-count comparator of the HLS benchmark's loop test.
  ExpandedModule m4 = expand_multiplier(d, "xudx3", r_xu3, r_dx, 1);
  ExpandedModule m5 = expand_multiplier(d, "yscale", r_y, r_dx, 1);
  ExpandedModule sub1 = expand_subtractor(d, "usub1", r_u, m4.out, 1);
  ExpandedModule sub2 = expand_subtractor(d, "usub2", sub1.out, r_ydx3, 1);
  ExpandedModule ynew = expand_adder(d, "ynew", r_y, r_udx, 1);
  ExpandedModule cmp = expand_comparator(d, "cmp", sub2.out, m5.out, 1);

  drive_register_bank(d, xr, xnew.out);
  drive_register_bank(d, yr, ynew.out);
  drive_register_bank(d, ur, sub2.out);

  add_output_bus(d, "u_out", sub2.out);
  add_output_bus(d, "y_out", ynew.out);
  d.net.add_output("lt", cmp.out[0]);
  return seal(d);
}

Design make_aspp4(int width) {
  NM_CHECK(width >= 2);
  Design d;
  d.name = "ASPP4";
  const std::size_t n = static_cast<std::size_t>(width);

  // Application-specific programmable processor datapath: a two-stage
  // (decode/execute-like) structure with two MAC units and an ALU per
  // stage, plus pipeline registers.
  SignalBus in0 = add_input_bus(d, "in0", width, 0);
  SignalBus in1 = add_input_bus(d, "in1", width, 0);
  SignalBus op = add_input_bus(d, "op", 2, 0);

  SignalBus rf0 = add_register_bank(d, "rf0", width, 0);
  SignalBus rf1 = add_register_bank(d, "rf1", width, 0);
  SignalBus rf2 = add_register_bank(d, "rf2", width, 0);
  SignalBus ir = add_register_bank(d, "ir", width, 0);
  drive_register_bank(d, rf0, in0);
  drive_register_bank(d, rf1, in1);
  drive_register_bank(d, ir, rf0);

  // Plane 0: a full-width MAC, a low-half MAC and an ALU.
  ExpandedModule mac0 =
      expand_multiplier(d, "mac0", rf0, rf1, 0, /*full_width=*/true);
  ExpandedModule mac1 = expand_multiplier(d, "mac1", rf1, rf2, 0);
  ExpandedModule alu0 =
      expand_alu(d, "alu0", op, low_half(mac0.out, n), mac1.out, 0);
  drive_register_bank(d, rf2, alu0.out);

  // Plane 1: accumulate stage with its own MACs and writeback ALU.
  SignalBus acc = add_register_bank(d, "acc", width, 1);
  SignalBus op1 = add_register_bank(d, "op1", 2, 1);
  SignalBus r1a = add_register_bank(d, "r1a", width, 1);
  SignalBus r1b = add_register_bank(d, "r1b", 2 * width, 1);
  SignalBus r1c = add_register_bank(d, "r1c", width, 1);
  drive_register_bank(d, op1, op);
  drive_register_bank(d, r1a, alu0.out);
  drive_register_bank(d, r1b, mac0.out);
  drive_register_bank(d, r1c, ir);

  SignalBus r1b_lo = low_half(r1b, n);
  SignalBus r1b_hi(r1b.begin() + static_cast<long>(n), r1b.end());
  ExpandedModule mac2 =
      expand_multiplier(d, "mac2", r1a, r1b_lo, 1, /*full_width=*/true);
  ExpandedModule mac3 = expand_multiplier(d, "mac3", r1b_hi, acc, 1);
  ExpandedModule alu1 =
      expand_alu(d, "alu1", op1, low_half(mac2.out, n), mac3.out, 1);
  ExpandedModule sum1 = expand_adder(d, "sum1", alu1.out, acc, 1);
  ExpandedModule sum2 = expand_adder(d, "sum2", sum1.out, r1c, 1);
  drive_register_bank(d, acc, sum2.out);

  add_output_bus(d, "res", sum2.out);
  add_output_bus(d, "machi", SignalBus(mac2.out.begin() + static_cast<long>(n),
                                       mac2.out.end()));
  return seal(d);
}

std::vector<std::string> benchmark_names() {
  return {"ex1", "FIR", "ex2", "c5315", "Biquad", "Paulin", "ASPP4"};
}

Design make_benchmark(const std::string& name) {
  if (name == "ex1") return make_ex1();
  if (name == "FIR") return make_fir();
  if (name == "ex2") return make_ex2();
  if (name == "c5315") return make_c5315();
  if (name == "Biquad") return make_biquad();
  if (name == "Paulin") return make_paulin();
  if (name == "ASPP4") return make_aspp4();
  throw InputError("unknown benchmark: " + name);
}

const PaperCircuitRow& paper_row(const std::string& name) {
  static const PaperCircuitRow kRows[] = {
      {"ex1", 1, 24, 644, 50, 12.90, 34, 17.02},
      {"FIR", 1, 25, 678, 112, 14.20, 56, 18.50},
      {"ex2", 3, 22, 694, 130, 38.76, 67, 48.84},
      {"c5315", 1, 14, 792, 0, 7.86, 144, 10.36},
      {"Biquad", 1, 22, 1376, 64, 12.34, 68, 16.28},
      {"Paulin", 2, 24, 1468, 147, 26.74, 106, 35.52},
      {"ASPP4", 2, 24, 2240, 160, 26.80, 100, 36.96},
  };
  for (const PaperCircuitRow& row : kRows) {
    if (name == row.name) return row;
  }
  throw InputError("unknown benchmark: " + name);
}

}  // namespace nanomap
