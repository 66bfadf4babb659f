// End-to-end robustness: the full physical flow over randomly generated
// sequential designs of varying shape, checking the invariants that must
// hold for *any* input — not just the paper benchmarks.
#include <gtest/gtest.h>

#include "bitstream/bitmap.h"
#include "circuits/benchmarks.h"
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
// is byte-identical to a cold run of the reference router on the
// winning rung's fabric + budgets, and the bitmap is thread-count
// invariant.

// Same spec/fabric as RecoveryLadder.FirstChannelRungRecoversPinnedCongestionCase
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

// Re-route the flow's winning placement cold with the reference
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

// The actions of the trail's route events, in order.
std::vector<std::string> route_actions(const FlowResult& r) {
  std::vector<std::string> actions;
  for (const FlowEvent& e : r.diagnostics.events)
    if (e.stage == "route") actions.push_back(e.action);
  return actions;
}

TEST(RecoveryLadderReuse, FirstChannelRungPinnedCaseReplaysOnWidenedFabric) {
  Design d = pinned_congestion_design();
  FlowOptions opts = pinned_congestion_options(/*len1_tracks=*/7);

  opts.threads = 1;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message << "\n" << r.diagnostics.to_string();
  EXPECT_TRUE(r.routing.success);

  // Rung 1, the first channel rung: the winning fabric is a widened copy
  // of the input fabric.
  const std::string detail = recovered_route_detail(r);
  ASSERT_FALSE(detail.empty()) << r.diagnostics.to_string();
  EXPECT_NE(detail.find("rung 1 (widened channels x1.25"), std::string::npos)
      << detail;
  EXPECT_GT(r.routed_arch.len1_tracks, opts.arch.len1_tracks);
  EXPECT_GT(r.routed_arch.len4_tracks, opts.arch.len4_tracks);

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

  // Rung 0 fails while later rungs of the ladder remain, so it
  // escalates; the first channel rung routes.
  EXPECT_EQ(route_actions(r),
            (std::vector<std::string>{"escalate", "recovered"}))
      << r.diagnostics.to_string();
  const std::string detail = recovered_route_detail(r);
  ASSERT_FALSE(detail.empty()) << r.diagnostics.to_string();
  EXPECT_NE(detail.find("rung 1"), std::string::npos) << detail;
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

// The ladder's shape: rung 1 routes the same placement on channels
// x1.25 with raised budgets (max_iterations x3 with a floor of +40,
// pres_fac_mult and hist_fac x1.5). Pinned for the default budget and a
// starved caller's, so a ladder whose channel rungs lose the raised
// budgets fails here.
TEST(RecoveryLadder, ChannelRungsCarryRaisedBudgets) {
  const Design d = pinned_congestion_design();
  struct Case {
    int len1_tracks;
    int caller_iterations;
    int raised_iterations;
    int widened_len1;  // ceil(len1_tracks x 1.25)
  };
  for (const Case& c : {Case{5, 60, 180, 7}, Case{7, 2, 42, 9}}) {
    FlowOptions opts = pinned_congestion_options(c.len1_tracks);
    opts.router.max_iterations = c.caller_iterations;
    const FlowResult r = run_nanomap(d, opts);
    ASSERT_TRUE(r.feasible) << r.message << "\n" << r.diagnostics.to_string();
    EXPECT_NE(recovered_route_detail(r).find("rung 1 (widened channels x1.25"),
              std::string::npos)
        << r.diagnostics.to_string();

    EXPECT_EQ(r.routed_router.max_iterations, c.raised_iterations);
    EXPECT_DOUBLE_EQ(r.routed_router.pres_fac_mult,
                     1.0 + (opts.router.pres_fac_mult - 1.0) * 1.5);
    EXPECT_DOUBLE_EQ(r.routed_router.hist_fac, opts.router.hist_fac * 1.5);

    EXPECT_EQ(r.routed_arch.len1_tracks, c.widened_len1);
    EXPECT_EQ(r.routed_arch.len4_tracks, 4);    // ceil(3 x 1.25)
    EXPECT_EQ(r.routed_arch.global_tracks, 3);  // max(2 + 1, ceil(2 x 1.25))
  }
}

// The benchmark's defect fabric: the paper instance with every channel
// halved and a seeded defect map (LE 1%, wire 1%, SMB 0.25%). It climbs
// the same ladder as a defect-free fabric: the channel rungs run on the
// first placement before any reseeded placement is tried.
FlowOptions defect_fabric_options(std::uint64_t seed) {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.arch.len1_tracks = 14;
  opts.arch.len4_tracks = 7;
  opts.arch.global_tracks = 4;
  opts.arch.direct_links_per_side = 6;
  opts.arch.defects.seed = 1;
  opts.arch.defects.le_rate = 0.01;
  opts.arch.defects.wire_rate = 0.01;
  opts.arch.defects.smb_rate = 0.0025;
  opts.seed = seed;
  return opts;
}

// Maps `circuit` on the defect fabric and checks that placement attempt
// 0 recovers at rung 1 (the first channel rung) without a reseeded
// placement, that the routing replays on the reference router, and that
// threads 1 and 4 give the same trail and bitmap.
FlowResult expect_first_placement_recovers_at_channel_rung(
    const std::string& circuit, std::uint64_t seed) {
  const Design d = make_benchmark(circuit);
  FlowOptions opts = defect_fabric_options(seed);
  opts.threads = 1;
  FlowResult r = run_nanomap(d, opts);
  EXPECT_TRUE(r.feasible) << r.message << "\n" << r.diagnostics.to_string();
  if (!r.feasible) return r;

  for (const FlowEvent& e : r.diagnostics.events) {
    EXPECT_FALSE(e.stage == "place" && e.action == "retry")
        << r.diagnostics.to_string();
    if (e.stage == "route") {
      EXPECT_EQ(e.attempt, 0) << e.detail;
    }
  }
  const std::string detail = recovered_route_detail(r);
  EXPECT_NE(detail.find("routed at rung 1 (widened channels"),
            std::string::npos)
      << r.diagnostics.to_string();
  EXPECT_EQ(detail.find("reseeded"), std::string::npos) << detail;
  EXPECT_GT(r.routed_arch.len1_tracks, opts.arch.len1_tracks);
  expect_matches_reference_replay(r);

  opts.threads = 4;
  const FlowResult parallel = run_nanomap(d, opts);
  EXPECT_EQ(r.diagnostics.to_string(), parallel.diagnostics.to_string());
  EXPECT_EQ(serialize_bitmap(r.bitmap), serialize_bitmap(parallel.bitmap));
  return r;
}

TEST(RecoveryLadder, DefectFabricWidensChannelsBeforeReseeding) {
  expect_first_placement_recovers_at_channel_rung("Paulin", 1);
}

// Rung 0 leaves more than max(50, 5%) of the RR nodes overused. That is
// no reason to end the climb on rung 0: it escalates as any failed rung
// does, with no extra hopeless-congestion event, and the first channel
// rung routes the same placement.
TEST(RecoveryLadder, DefectFabricHopelessRungSkipsToChannelRung) {
  const FlowResult r =
      expect_first_placement_recovers_at_channel_rung("Biquad", 4);
  EXPECT_EQ(route_actions(r),
            (std::vector<std::string>{"escalate", "recovered"}))
      << r.diagnostics.to_string();
  for (const FlowEvent& e : r.diagnostics.events) {
    if (e.stage != "route") continue;
    EXPECT_EQ(e.detail.find("for router budgets"), std::string::npos)
        << e.detail;
    EXPECT_EQ(e.detail.find("congestion too heavy"), std::string::npos)
        << e.detail;
  }
}

// Biquad forced to folding level 2 (10 folding cycles) on narrow
// channels: placement attempt 0 leaves 74 nodes overused at rung 1, over
// the limit max(50, 5% of the 200-node RR graph), so the climb ends
// there; the reseeded placement then routes at rung 2. The exit event
// states what it compares: an overuse summed over the folding cycles
// against a share of one cycle's graph.
TEST(RecoveryLadder, HopelessExitNamesWhatItCompares) {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.arch.direct_links_per_side = 4;
  opts.arch.len1_tracks = 8;
  opts.arch.len4_tracks = 4;
  opts.arch.global_tracks = 2;
  opts.forced_folding_level = 2;
  const FlowResult r = run_nanomap(make_benchmark("Biquad"), opts);
  ASSERT_TRUE(r.feasible) << r.message << "\n" << r.diagnostics.to_string();
  ASSERT_EQ(r.clustered.num_cycles, 10);

  // Rung 1's fabric: channels x1.25 (len1 10, len4 5, global 3).
  ArchParams rung1 = opts.arch;
  rung1.len1_tracks = 10;
  rung1.len4_tracks = 5;
  rung1.global_tracks = 3;
  const int rr_nodes = RrGraph(r.placement.placement.grid, rung1).size();
  ASSERT_EQ(rr_nodes, 200);

  std::vector<std::string> hopeless;
  for (const FlowEvent& e : r.diagnostics.events)
    if (e.stage == "route" && e.detail.find("too heavy") != std::string::npos) {
      EXPECT_EQ(e.attempt, 0);
      EXPECT_EQ(e.action, "fallback");
      hopeless.push_back(e.detail);
    }
  EXPECT_EQ(hopeless,
            (std::vector<std::string>{
                "congestion too heavy to escalate (74 overused nodes summed "
                "over 10 folding cycles > limit 50 = max(50, 5% of one "
                "cycle's 200 RR nodes))"}))
      << r.diagnostics.to_string();
  EXPECT_NE(recovered_route_detail(r).find("rung 2"), std::string::npos)
      << r.diagnostics.to_string();
}

}  // namespace
}  // namespace nanomap
