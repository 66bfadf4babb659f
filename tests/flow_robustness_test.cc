// End-to-end robustness: the full physical flow over randomly generated
// sequential designs of varying shape, checking the invariants that must
// hold for *any* input — not just the paper benchmarks.
#include <gtest/gtest.h>

#include "bitstream/bitmap.h"
#include "circuits/random_dag.h"
#include "flow/nanomap_flow.h"
#include "route/pathfinder_reference.h"

namespace nanomap {
namespace {

class FlowRobustness : public ::testing::TestWithParam<int> {};

TEST_P(FlowRobustness, InvariantsHoldOnRandomDesigns) {
  RandomDagSpec spec;
  spec.num_planes = 1 + GetParam() % 3;
  spec.luts_per_plane = 50 + (GetParam() * 37) % 150;
  spec.depth = 5 + GetParam() % 9;
  spec.regs_per_plane = 4 + GetParam() % 10;
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 7919 + 3;
  Design d = make_random_design(spec);

  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.objective = static_cast<Objective>(GetParam() % 2 == 0
                                              ? 0   // AT product
                                              : 2); // min area
  opts.seed = spec.seed;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message;

  // Routing legal, timing positive, bitmap consistent.
  EXPECT_TRUE(r.routing.success);
  EXPECT_GT(r.delay_ns, 0.0);
  EXPECT_EQ(r.bitmap.num_cycles, r.clustered.num_cycles);
  EXPECT_TRUE(r.bitmap.fits_nram(opts.arch));

  // Area accounting: clustering's LE count is the reported area and fits
  // the SMB capacity; every FDS stage is within it.
  EXPECT_EQ(r.num_les, r.clustered.les_used);
  EXPECT_LE(r.num_les, r.num_smbs * opts.arch.les_per_smb());
  for (const FdsResult& fr : r.plane_schedules) {
    for (std::size_t s = 1; s < fr.le_count.size(); ++s)
      EXPECT_LE(fr.le_count[s], r.num_les + 1);
  }

  // The folding configuration is self-consistent.
  if (!r.folding.no_folding()) {
    EXPECT_EQ(r.folding.stages_per_plane,
              (r.params.depth_max + r.folding.level - 1) / r.folding.level);
  }

  // Clustering invariants (throws on violation).
  EXPECT_NO_THROW(
      verify_clustering(d, r.schedule, opts.arch, r.clustered));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlowRobustness, ::testing::Range(0, 10));

TEST(FlowRobustness, TinyDesignsMapCleanly) {
  // Degenerate shapes: single LUT, single register loop, two-node chain.
  for (int variant = 0; variant < 3; ++variant) {
    Design d;
    int a = d.net.add_input("a", 0);
    if (variant == 0) {
      d.net.add_output("o", d.net.add_lut("l", {a, a}, 0x6, 0));
    } else if (variant == 1) {
      int ff = d.net.add_flipflop("r", 0);
      int l = d.net.add_lut("l", {ff, a}, 0x6, 0);
      d.net.set_flipflop_input(ff, l);
      d.net.add_output("o", l);
    } else {
      int l1 = d.net.add_lut("l1", {a, a}, 0x8, 0);
      int l2 = d.net.add_lut("l2", {l1, a}, 0x6, 0);
      d.net.add_output("o", l2);
    }
    d.net.compute_levels();
    FlowOptions opts;
    opts.arch = ArchParams::paper_instance();
    FlowResult r = run_nanomap(d, opts);
    ASSERT_TRUE(r.feasible) << "variant " << variant << ": " << r.message;
    EXPECT_TRUE(r.routing.success);
  }
}

TEST(FlowRobustness, WideShallowAndNarrowDeepExtremes) {
  // Wide-shallow: 300 LUTs at depth 2; narrow-deep: 40 LUTs at depth 20.
  RandomDagSpec wide;
  wide.luts_per_plane = 300;
  wide.depth = 2;
  wide.num_inputs = 40;
  wide.seed = 11;
  RandomDagSpec deep;
  deep.luts_per_plane = 40;
  deep.depth = 20;
  deep.seed = 12;
  for (const RandomDagSpec& spec : {wide, deep}) {
    Design d = make_random_design(spec);
    FlowOptions opts;
    opts.arch = ArchParams::paper_instance_unbounded_k();
    FlowResult r = run_nanomap(d, opts);
    ASSERT_TRUE(r.feasible) << r.message;
    EXPECT_TRUE(r.routing.success);
  }
}

// --- recovery-ladder routing (DESIGN.md §5g) --------------------------------
//
// The pinned synthetic-congestion cases from the resilient-flow PR must
// keep recovering at the same rung. Guarantees under test: the winning
// rung is unchanged and named in the diagnostics trail, the final routing
// is byte-identical to a cold run of the verbatim seed router on the
// winning rung's fabric + budgets, and the bitmap is thread-count
// invariant.

// Same spec/fabric as RecoveryLadder.RouterBudgetRungRecoversPinnedCongestionCase
// (tests/fault_injection_test.cc).
FlowOptions pinned_congestion_options(int len1_tracks) {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.arch.direct_links_per_side = 4;
  opts.arch.len1_tracks = len1_tracks;
  opts.arch.len4_tracks = 3;
  opts.arch.global_tracks = 2;
  opts.forced_folding_level = 0;   // fallback impossible: the ladder must win
  opts.router.max_iterations = 2;  // default budget: too small to converge
  return opts;
}

Design pinned_congestion_design() {
  RandomDagSpec spec;
  spec.luts_per_plane = 80;
  spec.depth = 5;
  spec.num_inputs = 24;
  spec.seed = 9;
  return make_random_design(spec);
}

void expect_routing_identical(const RoutingResult& got,
                              const RoutingResult& want) {
  EXPECT_EQ(got.success, want.success);
  EXPECT_EQ(got.worst_iterations, want.worst_iterations);
  EXPECT_EQ(got.overused_nodes, want.overused_nodes);
  ASSERT_EQ(got.nets.size(), want.nets.size());
  for (std::size_t i = 0; i < got.nets.size(); ++i) {
    EXPECT_EQ(got.nets[i].net_index, want.nets[i].net_index) << "net " << i;
    EXPECT_EQ(got.nets[i].sink_smbs, want.nets[i].sink_smbs) << "net " << i;
    EXPECT_EQ(got.nets[i].sink_delay_ps, want.nets[i].sink_delay_ps)
        << "net " << i;
    EXPECT_EQ(got.nets[i].wire_nodes, want.nets[i].wire_nodes) << "net " << i;
  }
  EXPECT_EQ(got.usage.direct, want.usage.direct);
  EXPECT_EQ(got.usage.len1, want.usage.len1);
  EXPECT_EQ(got.usage.len4, want.usage.len4);
  EXPECT_EQ(got.usage.global, want.usage.global);
}

// Re-route the flow's winning placement cold with the verbatim seed
// router on the winning rung's fabric and budgets; the shipped routing
// must match byte for byte.
void expect_matches_reference_replay(const FlowResult& r) {
  RrGraph rr(r.placement.placement.grid, r.routed_arch);
  RoutingResult ref = route_nets_reference(r.clustered, r.placement.placement,
                                           rr, r.routed_router);
  expect_routing_identical(r.routing, ref);
}

std::string recovered_route_detail(const FlowResult& r) {
  std::string detail;
  for (const FlowEvent& e : r.diagnostics.events)
    if (e.stage == "route" && e.action == "recovered") detail = e.detail;
  return detail;
}

TEST(RecoveryLadderReuse, BudgetRungPinnedCaseReplaysAndRecordsReuse) {
  Design d = pinned_congestion_design();
  FlowOptions opts = pinned_congestion_options(/*len1_tracks=*/7);

  opts.threads = 1;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message << "\n" << r.diagnostics.to_string();
  EXPECT_TRUE(r.routing.success);

  // Same rung as before the incremental kernel: rung 1, raised budgets,
  // no channel widening (the winning fabric is the input fabric).
  const std::string detail = recovered_route_detail(r);
  ASSERT_FALSE(detail.empty()) << r.diagnostics.to_string();
  EXPECT_NE(detail.find("rung 1"), std::string::npos) << detail;
  EXPECT_NE(detail.find("raised router budgets"), std::string::npos) << detail;
  EXPECT_EQ(r.routed_arch.len1_tracks, opts.arch.len1_tracks);
  EXPECT_EQ(r.routed_arch.len4_tracks, opts.arch.len4_tracks);

  expect_matches_reference_replay(r);

  opts.threads = 4;
  FlowResult parallel = run_nanomap(d, opts);
  EXPECT_EQ(r.diagnostics.to_string(), parallel.diagnostics.to_string());
  EXPECT_EQ(serialize_bitmap(r.bitmap), serialize_bitmap(parallel.bitmap));
}

TEST(RecoveryLadderReuse, ChannelBumpPinnedCaseReplaysOnWidenedFabric) {
  Design d = pinned_congestion_design();
  FlowOptions opts = pinned_congestion_options(/*len1_tracks=*/4);

  opts.threads = 1;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message << "\n" << r.diagnostics.to_string();
  EXPECT_TRUE(r.routing.success);

  const std::string detail = recovered_route_detail(r);
  ASSERT_FALSE(detail.empty()) << r.diagnostics.to_string();
  EXPECT_NE(detail.find("widened channels"), std::string::npos) << detail;

  // The winning fabric really is a widened copy — and the replay cross-
  // check below rebuilds the RR graph from it, proving FlowResult carries
  // everything needed to reproduce the routing.
  EXPECT_GT(r.routed_arch.len1_tracks, opts.arch.len1_tracks);

  expect_matches_reference_replay(r);

  opts.threads = 4;
  FlowResult parallel = run_nanomap(d, opts);
  EXPECT_EQ(r.diagnostics.to_string(), parallel.diagnostics.to_string());
  EXPECT_EQ(serialize_bitmap(r.bitmap), serialize_bitmap(parallel.bitmap));
}

}  // namespace
}  // namespace nanomap
