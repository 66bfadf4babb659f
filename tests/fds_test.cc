#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "circuits/benchmarks.h"
#include "circuits/random_dag.h"
#include "core/fds.h"
#include "core/fds_kernel.h"
#include "core/fds_reference.h"
#include "netlist/plane.h"
#include "rtl/module_expander.h"
#include "util/rng.h"

namespace nanomap {
namespace {

PlaneScheduleGraph graph_for(const Design& d, int plane, int level) {
  CircuitParams p = extract_circuit_params(d.net);
  return build_schedule_graph(d, plane, make_folding_config(p, level));
}

void expect_schedule_legal(const PlaneScheduleGraph& g,
                           const FdsResult& r) {
  ASSERT_TRUE(r.feasible);
  for (const ScheduleNode& n : g.nodes) {
    int sn = r.stage_of[static_cast<std::size_t>(n.id)];
    EXPECT_GE(sn, 1);
    EXPECT_LE(sn, g.num_stages);
    for (int s : n.succs) {
      EXPECT_GE(r.stage_of[static_cast<std::size_t>(s)],
                sn + schedule_gap(g, n.id, s))
          << n.debug_name;
    }
  }
  // The fully pinned schedule must also be frame-feasible (this checks the
  // within-stage level budget end to end).
  TimeFrames tf = compute_time_frames(g, r.stage_of);
  EXPECT_TRUE(tf.feasible);
}

TEST(Fds, PaperStyleDiamondDGs) {
  // A diamond: L1 -> {L2, L3} -> L4 over 3 folding cycles at level 1.
  Design d;
  int a = d.net.add_input("a", 0);
  int b = d.net.add_input("b", 0);
  int l1 = d.net.add_lut("L1", {a, b}, 0x6, 0);
  int l2 = d.net.add_lut("L2", {l1, a}, 0x6, 0);
  int l3 = d.net.add_lut("L3", {l1, b}, 0x6, 0);
  int l4 = d.net.add_lut("L4", {l2, l3}, 0x6, 0);
  d.net.add_output("o", l4);
  d.net.compute_levels();

  PlaneScheduleGraph g = graph_for(d, 0, 1);
  ASSERT_EQ(g.num_stages, 3);
  std::vector<int> unpinned(g.nodes.size(), 0);
  TimeFrames tf = compute_time_frames(g, unpinned);
  std::vector<StorageOp> ops = build_storage_ops(g);
  DistributionGraphs dgs = compute_dgs(g, ops, unpinned, tf);

  // Frames: L1 -> [1,1], L2/L3 -> [2,2], L4 -> [3,3] (chain is tight), so
  // the LUT DG is exactly 1,2,1.
  EXPECT_DOUBLE_EQ(dgs.lut[1], 1.0);
  EXPECT_DOUBLE_EQ(dgs.lut[2], 2.0);
  EXPECT_DOUBLE_EQ(dgs.lut[3], 1.0);
}

TEST(Fds, SlackNodeSpreadsProbability) {
  // L1 -> L2 -> L3 chain plus independent L5 (frame [1,3] at level 1).
  Design d;
  int a = d.net.add_input("a", 0);
  int b = d.net.add_input("b", 0);
  int l1 = d.net.add_lut("L1", {a, b}, 0x6, 0);
  int l2 = d.net.add_lut("L2", {l1, a}, 0x6, 0);
  int l3 = d.net.add_lut("L3", {l2, b}, 0x6, 0);
  int l5 = d.net.add_lut("L5", {a, b}, 0x8, 0);
  d.net.add_output("o", l3);
  d.net.add_output("p", l5);
  d.net.compute_levels();

  PlaneScheduleGraph g = graph_for(d, 0, 1);
  std::vector<int> unpinned(g.nodes.size(), 0);
  TimeFrames tf = compute_time_frames(g, unpinned);
  int l5_node = g.node_of_lut[static_cast<std::size_t>(l5)];
  EXPECT_EQ(tf.asap[static_cast<std::size_t>(l5_node)], 1);
  EXPECT_EQ(tf.alap[static_cast<std::size_t>(l5_node)], 3);

  std::vector<StorageOp> ops = build_storage_ops(g);
  DistributionGraphs dgs = compute_dgs(g, ops, unpinned, tf);
  // Chain contributes 1.0 to each cycle; L5 contributes 1/3 to each.
  for (int j = 1; j <= 3; ++j)
    EXPECT_NEAR(dgs.lut[static_cast<std::size_t>(j)], 1.0 + 1.0 / 3.0, 1e-9);
}

TEST(Fds, StorageLifetimeArithmeticEq6to8) {
  // Source pinned by chain to stage 1; two consumers, one tight at stage 2,
  // one floating to stage 3: check the Eq. 6-8 derived distribution.
  Design d;
  int a = d.net.add_input("a", 0);
  int b = d.net.add_input("b", 0);
  int src = d.net.add_lut("S", {a, b}, 0x6, 0);
  int c1 = d.net.add_lut("C1", {src, a}, 0x6, 0);
  int c2 = d.net.add_lut("C2", {c1, b}, 0x6, 0);   // forces 3 stages
  int c3 = d.net.add_lut("C3", {src, b}, 0x6, 0);  // floating consumer
  d.net.add_output("o", c2);
  d.net.add_output("p", c3);
  d.net.compute_levels();

  PlaneScheduleGraph g = graph_for(d, 0, 1);
  ASSERT_EQ(g.num_stages, 3);
  std::vector<StorageOp> ops = build_storage_ops(g);
  // Find the storage op produced by node S.
  int s_node = g.node_of_lut[static_cast<std::size_t>(src)];
  const StorageOp* op = nullptr;
  for (const StorageOp& o : ops)
    if (o.producer == s_node) op = &o;
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->consumers.size(), 2u);
  EXPECT_EQ(op->weight, 1);
  (void)c3;
}

TEST(Fds, TallyCountsPlaneRegistersEveryStage) {
  Design d;
  SignalBus in = add_input_bus(d, "in", 4, 0);
  SignalBus r = add_register_bank(d, "r", 4, 0);
  drive_register_bank(d, r, in);
  ExpandedModule add = expand_adder(d, "s", r, r, 0);
  int l1 = d.net.add_lut("l1", {add.out[3], add.out[0]}, 0x6, 0);
  d.net.add_output("o", l1);
  d.net.compute_levels();
  d.refresh_module_stats();

  PlaneScheduleGraph g = graph_for(d, 0, 2);
  FdsResult r2 = schedule_plane(g, ArchParams::paper_instance());
  expect_schedule_legal(g, r2);
  for (std::size_t j = 1; j < r2.ff_count.size(); ++j)
    EXPECT_GE(r2.ff_count[j], 4);  // the 4 plane registers stay live
}

TEST(Fds, OccupancyConventionNoStorageForSameStageUse) {
  // Two LUTs chained within one 2-level stage: no flip-flop needed.
  Design d;
  int a = d.net.add_input("a", 0);
  int b = d.net.add_input("b", 0);
  int l1 = d.net.add_lut("l1", {a, b}, 0x6, 0);
  int l2 = d.net.add_lut("l2", {l1, a}, 0x6, 0);
  d.net.add_output("o", l2);
  d.net.compute_levels();

  PlaneScheduleGraph g = graph_for(d, 0, 2);  // single stage of 2 levels
  ASSERT_EQ(g.num_stages, 1);
  FdsResult r = schedule_plane(g, ArchParams::paper_instance());
  // l2 feeds the primary output in the last stage -> no cross-stage
  // storage; l1's value is consumed combinationally.
  EXPECT_EQ(r.ff_count[1], 0);
}

TEST(Fds, LutCountsPreserved) {
  Design d = make_ex1(8);
  CircuitParams p = extract_circuit_params(d.net);
  for (int level : {1, 2, 4}) {
    PlaneScheduleGraph g = graph_for(d, 0, level);
    FdsResult r = schedule_plane(g, ArchParams::paper_instance_unbounded_k());
    expect_schedule_legal(g, r);
    int total = 0;
    for (std::size_t j = 1; j < r.lut_count.size(); ++j)
      total += r.lut_count[j];
    EXPECT_EQ(total, p.num_lut[0]) << "level " << level;
  }
}

TEST(Fds, BalancesAtLeastAsWellAsAsapOnBenchmarks) {
  for (const char* name : {"ex1", "FIR"}) {
    Design d = make_benchmark(name);
    PlaneScheduleGraph g = graph_for(d, 0, 1);
    FdsOptions fds_on, fds_off;
    fds_off.scheduler = SchedulerKind::kAsap;
    fds_off.refine = false;
    ArchParams arch = ArchParams::paper_instance_unbounded_k();
    FdsResult with_fds = schedule_plane(g, arch, fds_on);
    FdsResult asap = schedule_plane(g, arch, fds_off);
    expect_schedule_legal(g, with_fds);
    expect_schedule_legal(g, asap);
    EXPECT_LE(with_fds.max_le, asap.max_le) << name;
  }
}

TEST(Fds, ListSchedulerLegalAndCompetitive) {
  for (const char* name : {"ex1", "c5315"}) {
    Design d = make_benchmark(name);
    PlaneScheduleGraph g = graph_for(d, 0, 1);
    ArchParams arch = ArchParams::paper_instance_unbounded_k();
    FdsOptions list_opts, asap_opts;
    list_opts.scheduler = SchedulerKind::kList;
    list_opts.refine = false;
    asap_opts.scheduler = SchedulerKind::kAsap;
    asap_opts.refine = false;
    FdsResult list = schedule_plane(g, arch, list_opts);
    FdsResult asap = schedule_plane(g, arch, asap_opts);
    expect_schedule_legal(g, list);
    // List scheduling never does meaningfully worse than ASAP on peak.
    EXPECT_LE(list.max_le, asap.max_le * 11 / 10) << name;
  }
}

class FdsRandomLegality : public ::testing::TestWithParam<int> {};

TEST_P(FdsRandomLegality, RandomDagsScheduleLegally) {
  RandomDagSpec spec;
  spec.luts_per_plane = 60 + GetParam() * 13;
  spec.depth = 8;
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 1337 + 5;
  Design d = make_random_design(spec);
  for (int level : {1, 2, 3}) {
    PlaneScheduleGraph g = graph_for(d, 0, level);
    ASSERT_TRUE(g.feasible);
    FdsResult r = schedule_plane(g, ArchParams::paper_instance_unbounded_k());
    expect_schedule_legal(g, r);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdsRandomLegality, ::testing::Range(0, 8));

TEST(Fds, DeterministicAcrossRuns) {
  Design d = make_ex1(8);
  PlaneScheduleGraph g = graph_for(d, 0, 2);
  ArchParams arch = ArchParams::paper_instance();
  FdsResult r1 = schedule_plane(g, arch);
  FdsResult r2 = schedule_plane(g, arch);
  EXPECT_EQ(r1.stage_of, r2.stage_of);
  EXPECT_EQ(r1.max_le, r2.max_le);
}

TEST(Fds, ExactTiesResolveToLowestNodeId) {
  // A tight L1 -> L2 chain (2 stages at level 1) plus two identical
  // independent LUTs A and B with frames [1,2]. In the opening iterations
  // the candidates L1@1, L2@2, A@2 and B@2 all have a total force of
  // *exactly* 0.0 (the A@1/B@1 candidates cost extra storage because both
  // outputs are anchored to the last stage), so the documented tie-break
  // decides the pin order: lowest force, then lowest node id, then lowest
  // stage. A is therefore pinned to stage 2 before B gets a turn, after
  // which B strictly prefers the now-emptier stage 1. If ties broke
  // toward the higher node id instead, the assignment would come out
  // mirrored — so the final schedule pins the order exactly.
  Design d;
  int a = d.net.add_input("a", 0);
  int b = d.net.add_input("b", 0);
  int l1 = d.net.add_lut("L1", {a, b}, 0x6, 0);
  int l2 = d.net.add_lut("L2", {l1, a}, 0x6, 0);
  int la = d.net.add_lut("A", {a, b}, 0x8, 0);
  int lb = d.net.add_lut("B", {a, b}, 0xe, 0);
  d.net.add_output("o", l2);
  d.net.add_output("p", la);
  d.net.add_output("q", lb);
  d.net.compute_levels();

  PlaneScheduleGraph g = graph_for(d, 0, 1);
  ASSERT_EQ(g.num_stages, 2);
  int na = g.node_of_lut[static_cast<std::size_t>(la)];
  int nb = g.node_of_lut[static_cast<std::size_t>(lb)];
  ASSERT_NE(na, nb);
  int lo = std::min(na, nb);
  int hi = std::max(na, nb);

  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  FdsResult r = schedule_plane(g, arch);
  expect_schedule_legal(g, r);
  EXPECT_EQ(r.stage_of[static_cast<std::size_t>(lo)], 2)
      << "the zero-force tie must break to the lowest node id";
  EXPECT_EQ(r.stage_of[static_cast<std::size_t>(hi)], 1);

  // And the retained from-scratch scheduler agrees candidate for
  // candidate.
  FdsResult ref = schedule_plane_reference(g, arch);
  EXPECT_EQ(r.stage_of, ref.stage_of);
}

TEST(Fds, DifferentialSweepMatchesReferenceScheduler) {
  // The incremental kernel (and the RefineTally-based refine used by every
  // scheduler kind) must reproduce the retained from-scratch reference
  // *exactly* — same pins, same refine moves — across random DAGs,
  // folding levels (0 = no folding), and scheduler kinds.
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  for (int seed = 0; seed < 6; ++seed) {
    RandomDagSpec spec;
    spec.luts_per_plane = 50 + seed * 17;
    spec.depth = 7;
    spec.regs_per_plane = 4;
    spec.seed = static_cast<std::uint64_t>(seed) * 9176 + 11;
    Design d = make_random_design(spec);
    for (int level : {1, 2, 0}) {
      PlaneScheduleGraph g = graph_for(d, 0, level);
      ASSERT_TRUE(g.feasible);
      for (SchedulerKind kind :
           {SchedulerKind::kFds, SchedulerKind::kList, SchedulerKind::kAsap}) {
        FdsOptions opts;
        opts.scheduler = kind;
        FdsResult got = schedule_plane(g, arch, opts);
        FdsResult want = schedule_plane_reference(g, arch, opts);
        EXPECT_EQ(got.stage_of, want.stage_of)
            << "seed " << seed << " level " << level << " kind "
            << static_cast<int>(kind);
        EXPECT_EQ(got.feasible, want.feasible);
        EXPECT_EQ(got.max_le, want.max_le);
        EXPECT_EQ(got.le_count, want.le_count);
      }
    }
  }
}

// Drives IncrementalFrames through a random pin sequence and checks it
// against the full pass after every step: asap, alap and feasible equal
// compute_time_frames, and the reported change list is exactly the set of
// nodes whose frame moved. Most pins fall inside the node's frame (the
// kernel's case); the rest land anywhere in [1, S], which drives the
// range and asap/alap clamps and feasible = false; a few steps re-pin or
// unpin an already pinned node.
void check_random_pins(const PlaneScheduleGraph& g, std::uint64_t seed) {
  const int n = static_cast<int>(g.nodes.size());
  if (n == 0) return;
  Rng rng(seed);
  std::vector<int> stage_of(static_cast<std::size_t>(n), 0);
  IncrementalFrames inc(g);
  inc.reset(stage_of);
  TimeFrames want = compute_time_frames(g, stage_of);
  ASSERT_EQ(inc.frames().asap, want.asap);
  ASSERT_EQ(inc.frames().alap, want.alap);
  ASSERT_EQ(inc.frames().feasible, want.feasible);

  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.next_int(0, i))]);

  bool saw_infeasible = false;
  for (int step = 0; step < n + n / 4; ++step) {
    int u;
    int stage;
    if (step < n && rng.next_int(0, 9) != 0) {
      u = order[static_cast<std::size_t>(step)];
      const int a = inc.frames().asap[static_cast<std::size_t>(u)];
      const int b = inc.frames().alap[static_cast<std::size_t>(u)];
      stage = rng.next_int(0, 3) != 0 ? rng.next_int(a, b)
                                      : rng.next_int(1, g.num_stages);
    } else {
      u = rng.next_int(0, n - 1);
      stage = rng.next_int(0, g.num_stages);
    }
    const TimeFrames before = inc.frames();
    stage_of[static_cast<std::size_t>(u)] = stage;
    std::vector<int> changed = inc.repin(u, stage_of);
    want = compute_time_frames(g, stage_of);
    ASSERT_EQ(inc.frames().asap, want.asap) << "step " << step;
    ASSERT_EQ(inc.frames().alap, want.alap) << "step " << step;
    ASSERT_EQ(inc.frames().feasible, want.feasible) << "step " << step;
    saw_infeasible = saw_infeasible || !want.feasible;

    std::vector<int> moved;
    for (int i = 0; i < n; ++i) {
      const std::size_t ii = static_cast<std::size_t>(i);
      if (before.asap[ii] != want.asap[ii] || before.alap[ii] != want.alap[ii])
        moved.push_back(i);
    }
    std::sort(changed.begin(), changed.end());
    ASSERT_EQ(changed, moved) << "step " << step;
  }
  // With more than one stage, some out-of-frame pin must have broken
  // feasibility along the way (level 0 has a single stage: every pin fits).
  if (g.num_stages > 1) {
    EXPECT_TRUE(saw_infeasible);
  }
}

TEST(FdsFrames, IncrementalMatchesFullPassOnRandomDags) {
  for (int seed = 0; seed < 6; ++seed) {
    RandomDagSpec spec;
    spec.luts_per_plane = 40 + seed * 23;
    spec.depth = 6 + seed;
    spec.regs_per_plane = 4;
    spec.seed = static_cast<std::uint64_t>(seed) * 7919 + 3;
    Design d = make_random_design(spec);
    for (int level : {1, 2, 3, 0}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " level " +
                   std::to_string(level));
      check_random_pins(graph_for(d, 0, level),
                        static_cast<std::uint64_t>(seed * 10 + level));
    }
  }
}

TEST(FdsFrames, IncrementalMatchesFullPassOnPaperCircuits) {
  for (const std::string& name : benchmark_names()) {
    Design d = make_benchmark(name);
    CircuitParams p = extract_circuit_params(d.net);
    for (int level : {1, 2, 4}) {
      FoldingConfig cfg = make_folding_config(p, level);
      for (int plane = 0; plane < p.num_plane; ++plane) {
        SCOPED_TRACE(name + " level " + std::to_string(level) + " plane " +
                     std::to_string(plane));
        check_random_pins(build_schedule_graph(d, plane, cfg),
                          static_cast<std::uint64_t>(level * 31 + plane));
      }
    }
  }
}

TEST(Fds, EmptyPlaneHandled) {
  Design d;
  d.net.add_input("a", 0);
  // Plane 1 exists (a register) but has no LUTs.
  int ff = d.net.add_flipflop("r", 1);
  d.net.set_flipflop_input(ff, 0);
  d.net.compute_levels();
  CircuitParams p = extract_circuit_params(d.net);
  PlaneScheduleGraph g =
      build_schedule_graph(d, 1, make_folding_config(p, 1));
  FdsResult r = schedule_plane(g, ArchParams::paper_instance());
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.max_le, 1);  // the plane register still needs an LE's FF
}

}  // namespace
}  // namespace nanomap
