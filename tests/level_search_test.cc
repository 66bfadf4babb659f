// Differential oracle for the lazy AT-product level search (DESIGN.md
// "Lazy AT level search"). The oracle is the eager ranking built from the
// public stage APIs: schedule and cluster every candidate level, then
// stable-sort the valid ones by #LEs x estimated delay. The flow must
// yield levels in exactly that order while scheduling only a prefix of
// them, and the pigeonhole lower bound it prunes with must never exceed
// a measured AT product.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "circuits/benchmarks.h"
#include "circuits/random_dag.h"
#include "core/estimate.h"
#include "core/fds.h"
#include "core/schedule_graph.h"
#include "core/temporal_cluster.h"
#include "flow/nanomap_flow.h"
#include "netlist/plane.h"

namespace nanomap {
namespace {

struct RankedLevel {
  int level;
  double at;
};

// The eager ranking: every candidate level scheduled and clustered the way
// the flow's evaluation does, invalid levels dropped, the rest stable-
// sorted by AT. Also checks the lower bound against each measured AT.
std::vector<RankedLevel> eager_at_ranking(const Design& d,
                                          const FlowOptions& opts) {
  const CircuitParams params = extract_circuit_params(d.net);
  std::vector<RankedLevel> ranked;
  for (int level : candidate_folding_levels(params, opts)) {
    const FoldingConfig cfg = make_folding_config(params, level);
    if (!cfg.no_folding() && !opts.arch.reconf_unbounded() &&
        opts.planes_share &&
        cfg.total_configs(params.num_plane) > opts.arch.num_reconf)
      continue;  // exceeds the NRAM depth
    DesignSchedule sched;
    sched.folding = cfg;
    sched.planes_share = cfg.no_folding() ? false : opts.planes_share;
    FdsOptions fds;
    fds.scheduler = opts.scheduler;
    fds.refine = opts.refine_schedule;
    bool feasible = true;
    for (int p = 0; p < params.num_plane && feasible; ++p) {
      PlaneScheduleGraph graph = build_schedule_graph(d, p, cfg);
      FdsResult fr = graph.feasible ? schedule_plane(graph, opts.arch, fds)
                                    : FdsResult{};
      feasible = graph.feasible && fr.feasible;
      sched.graphs.push_back(std::move(graph));
      sched.plane_results.push_back(std::move(fr));
    }
    if (!feasible) continue;
    const ClusteredDesign cd = temporal_cluster(d, sched, opts.arch);
    const double est = estimated_circuit_delay_ns(params, cfg, opts.arch);
    const double at = cd.les_used * est;

    int lb_les = 0;
    for (int luts : params.num_lut)
      lb_les = std::max(lb_les, (luts + cfg.stages_per_plane - 1) /
                                    cfg.stages_per_plane);
    EXPECT_LE(lb_les * est, at) << "L" << level << ": LE bound " << lb_les
                                << " above " << cd.les_used << " LEs";
    ranked.push_back({level, at});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedLevel& a, const RankedLevel& b) {
                     return a.at < b.at;
                   });
  return ranked;
}

// The level named by the flow's " | AT ranking best L<n>" log (-1: none).
int logged_best_level(const std::string& message) {
  const std::string tag = " | AT ranking best L";
  const std::size_t at = message.find(tag);
  if (at == std::string::npos) return -1;
  return std::stoi(message.substr(at + tag.size()));
}

// The flow's first yield (run_physical off, so the first level it yields
// is the one it returns) must be the oracle's best level.
void expect_flow_picks_oracle_best(const Design& d, FlowOptions opts,
                                   const std::string& what) {
  const std::vector<RankedLevel> oracle = eager_at_ranking(d, opts);
  opts.run_physical = false;
  const FlowResult r = run_nanomap(d, opts);
  if (oracle.empty()) {
    EXPECT_FALSE(r.feasible) << what;
    EXPECT_EQ(logged_best_level(r.message), -1) << what;
    return;
  }
  ASSERT_TRUE(r.feasible) << what << ": " << r.message;
  const int best = oracle.front().level;
  EXPECT_EQ(logged_best_level(r.message), best) << what << ": " << r.message;
  const CircuitParams params = extract_circuit_params(d.net);
  EXPECT_EQ(r.folding.level, make_folding_config(params, best).level)
      << what;
  EXPECT_EQ(r.levels_tried, 1) << what;
}

TEST(LevelSearch, PaperCircuitsMatchEagerRanking) {
  for (const std::string& name : benchmark_names()) {
    const Design d = make_benchmark(name);
    FlowOptions unbounded;
    unbounded.arch = ArchParams::paper_instance_unbounded_k();
    expect_flow_picks_oracle_best(d, unbounded, name + " k unbounded");

    FlowOptions k16;
    k16.arch = ArchParams::paper_instance();
    ASSERT_EQ(k16.arch.num_reconf, 16);
    expect_flow_picks_oracle_best(d, k16, name + " k=16");

    FlowOptions no_share;
    no_share.planes_share = false;
    expect_flow_picks_oracle_best(d, no_share, name + " no sharing");
  }
}

TEST(LevelSearch, RandomDagsMatchEagerRanking) {
  for (int i = 0; i < 20; ++i) {
    RandomDagSpec spec;
    spec.num_planes = 1 + i % 3;
    spec.luts_per_plane = 20 + 7 * i;
    spec.depth = 3 + i % 9;
    spec.regs_per_plane = 2 + i % 5;
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    const Design d = make_random_design(spec);
    FlowOptions opts;
    if (i % 2 == 0) opts.arch = ArchParams::paper_instance_unbounded_k();
    if (i % 5 == 4) opts.planes_share = false;
    expect_flow_picks_oracle_best(d, opts, "random dag " + std::to_string(i));
  }
}

// When the physical flow rejects a level the search resumes where it
// left off: the levels tried, in order, are a prefix of the eager
// ranking. On one-track channels with a one-iteration router the whole
// recovery ladder fails a level, which leaves exactly one "ladder
// exhausted" fallback event. With 80 LUTs per plane the first level
// fails and a later one routes; with 160 every level fails, so the
// levels tried are the whole ranking. On the 80-LUT circuit the bound
// order differs from the AT order, so levels are measured but not yet
// yielded when a rejection resumes the search.
TEST(LevelSearch, PhysicalFallbackResumesInEagerOrder) {
  for (int luts : {80, 160}) {
    RandomDagSpec spec;
    spec.luts_per_plane = luts;
    spec.depth = 8;
    spec.num_inputs = 24;
    spec.seed = 1;
    const Design d = make_random_design(spec);

    FlowOptions opts;
    opts.arch = ArchParams::paper_instance_unbounded_k();
    opts.arch.direct_links_per_side = 1;
    opts.arch.len1_tracks = 1;
    opts.arch.len4_tracks = 1;
    opts.arch.global_tracks = 1;
    opts.router.max_iterations = 1;
    opts.seed = 3;
    const FlowResult r = run_nanomap(d, opts);

    std::vector<int> tried;
    for (const FlowEvent& e : r.diagnostics.events)
      if (e.stage == "flow" && e.action == "fallback")
        tried.push_back(e.level);
    if (r.feasible) tried.push_back(r.folding.level);
    ASSERT_GE(tried.size(), 2u) << luts << " LUTs: " << r.message;
    EXPECT_EQ(static_cast<int>(tried.size()), r.levels_tried) << luts;
    EXPECT_EQ(r.feasible, luts == 80) << r.message;

    const std::vector<RankedLevel> oracle = eager_at_ranking(d, opts);
    ASSERT_LE(tried.size(), oracle.size()) << luts;
    if (!r.feasible) {
      EXPECT_EQ(tried.size(), oracle.size()) << luts;
    }
    for (std::size_t i = 0; i < tried.size(); ++i)
      EXPECT_EQ(tried[i], oracle[i].level) << luts << " LUTs, attempt " << i;
  }
}

}  // namespace
}  // namespace nanomap
