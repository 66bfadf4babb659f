// End-to-end flow behaviour under the paper's optimization objectives.
#include <gtest/gtest.h>

#include "circuits/benchmarks.h"
#include "flow/nanomap_flow.h"

namespace nanomap {
namespace {

TEST(Flow, NoFoldingBaselineUsesOneLePerLut) {
  Design d = make_ex1(6);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.forced_folding_level = 0;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_TRUE(r.folding.no_folding());
  EXPECT_GE(r.num_les, d.net.num_luts());
  EXPECT_TRUE(r.routing.success);
}

TEST(Flow, MinDelayWithoutAreaConstraintIsNoFolding) {
  Design d = make_ex1(6);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.objective = Objective::kMinDelay;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_TRUE(r.folding.no_folding());
}

TEST(Flow, MinDelayUnderAreaConstraintRespectsIt) {
  Design d = make_ex1(8);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.objective = Objective::kMinDelay;
  opts.area_constraint_le = 60;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_LE(r.num_les, 60);
  EXPECT_FALSE(r.folding.no_folding());
}

TEST(Flow, TighterAreaConstraintFoldsDeeper) {
  Design d = make_fir(3, 8);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.objective = Objective::kMinDelay;
  opts.area_constraint_le = 150;
  FlowResult loose = run_nanomap(d, opts);
  opts.area_constraint_le = 60;
  FlowResult tight = run_nanomap(d, opts);
  ASSERT_TRUE(loose.feasible) << loose.message;
  ASSERT_TRUE(tight.feasible) << tight.message;
  EXPECT_LE(loose.num_les, 150);
  EXPECT_LE(tight.num_les, 60);
  // A tighter budget forces at least as much folding (the paper's
  // iterative refinement descends the folding level).
  EXPECT_LE(tight.folding.level, loose.folding.level);
}

TEST(Flow, MinAreaFoldsMaximally) {
  Design d = make_ex1(8);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.objective = Objective::kMinArea;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_EQ(r.folding.level, 1);
  EXPECT_LT(r.num_les, d.net.num_luts() / 4);
}

TEST(Flow, MinAreaUnderDelayConstraint) {
  Design d = make_ex1(8);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.objective = Objective::kMinArea;
  // First learn the unconstrained (max-folding) delay, then require ~30%
  // faster and check a larger folding level is chosen.
  FlowResult free = run_nanomap(d, opts);
  ASSERT_TRUE(free.feasible);
  opts.delay_constraint_ns = free.delay_ns * 0.7;
  FlowResult constrained = run_nanomap(d, opts);
  if (constrained.feasible) {
    EXPECT_LE(constrained.delay_ns, opts.delay_constraint_ns);
    EXPECT_GT(constrained.folding.level, free.folding.level);
    EXPECT_GE(constrained.num_les, free.num_les);
  }
}

TEST(Flow, MeetBothConstraints) {
  Design d = make_ex1(8);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  // Learn a feasible point first.
  opts.objective = Objective::kAreaDelayProduct;
  FlowResult at = run_nanomap(d, opts);
  ASSERT_TRUE(at.feasible);
  opts.objective = Objective::kMeetBoth;
  opts.area_constraint_le = at.num_les + 10;
  opts.delay_constraint_ns = at.delay_ns * 1.2;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_LE(r.num_les, opts.area_constraint_le);
  EXPECT_LE(r.delay_ns, opts.delay_constraint_ns);
}

TEST(Flow, ImpossibleConstraintsReportedInfeasible) {
  Design d = make_ex1(8);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.objective = Objective::kMeetBoth;
  opts.area_constraint_le = 5;     // less than any folding can reach
  opts.delay_constraint_ns = 0.1;  // absurd
  FlowResult r = run_nanomap(d, opts);
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.message.empty());
}

TEST(Flow, NramDepthLimitsFoldingLevel) {
  Design d = make_ex1(8);  // depth ~15
  FlowOptions opts;
  opts.objective = Objective::kMinArea;
  opts.arch = ArchParams::paper_instance();
  opts.arch.num_reconf = 4;  // very shallow NRAM
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message;
  // #configs = stages <= 4.
  EXPECT_LE(r.folding.total_configs(r.params.num_plane), 4);
  EXPECT_TRUE(r.bitmap.fits_nram(opts.arch));
}

TEST(Flow, ForcedLevelHonored) {
  Design d = make_ex1(6);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.forced_folding_level = 3;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_EQ(r.folding.level, 3);
}

TEST(Flow, DeterministicForSeed) {
  Design d = make_ex1(6);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.seed = 99;
  FlowResult a = run_nanomap(d, opts);
  FlowResult b = run_nanomap(d, opts);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.num_les, b.num_les);
  EXPECT_DOUBLE_EQ(a.delay_ns, b.delay_ns);
  EXPECT_EQ(a.folding.level, b.folding.level);
}

TEST(Flow, PipelinedPlanesDontShare) {
  Design d = make_ex2(8);
  FlowOptions shared, pipelined;
  shared.arch = pipelined.arch = ArchParams::paper_instance_unbounded_k();
  shared.forced_folding_level = pipelined.forced_folding_level = 2;
  pipelined.planes_share = false;
  FlowResult rs = run_nanomap(d, shared);
  FlowResult rp = run_nanomap(d, pipelined);
  ASSERT_TRUE(rs.feasible) << rs.message;
  ASSERT_TRUE(rp.feasible) << rp.message;
  // Pipelined mapping keeps all planes resident: strictly more LEs, but
  // fewer configuration cycles.
  EXPECT_GT(rp.num_les, rs.num_les);
  EXPECT_LT(rp.bitmap.num_cycles, rs.bitmap.num_cycles);
}

TEST(Flow, EstimateOnlyModeSkipsPhysical) {
  Design d = make_ex1(6);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.run_physical = false;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.delay_ns, 0.0);
  EXPECT_TRUE(r.routing.nets.empty());
  EXPECT_EQ(r.bitmap.num_cycles, 0);
}

TEST(Flow, AtProductBeatsNoFoldingOnAllBenchmarks) {
  for (const char* name : {"ex1", "FIR"}) {
    Design d = make_benchmark(name);
    FlowOptions opts;
    opts.arch = ArchParams::paper_instance_unbounded_k();
    opts.objective = Objective::kAreaDelayProduct;
    FlowResult folded = run_nanomap(d, opts);
    opts.forced_folding_level = 0;
    FlowResult flat = run_nanomap(d, opts);
    ASSERT_TRUE(folded.feasible) << folded.message;
    ASSERT_TRUE(flat.feasible) << flat.message;
    EXPECT_LT(folded.area_delay_product(), flat.area_delay_product())
        << name;
  }
}

TEST(Flow, UseFdsOffStillLegal) {
  Design d = make_ex1(6);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.scheduler = SchedulerKind::kAsap;
  opts.forced_folding_level = 1;
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_TRUE(r.routing.success);
}

TEST(Flow, SummaryMentionsKeyNumbers) {
  Design d = make_ex1(4);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible);
  std::string s = summarize(r);
  EXPECT_NE(s.find("LEs"), std::string::npos);
  EXPECT_NE(s.find("delay"), std::string::npos);
}

}  // namespace
}  // namespace nanomap
