#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "circuits/benchmarks.h"
#include "core/temporal_cluster.h"
#include "flow/nanomap_flow.h"
#include "netlist/plane.h"
#include "place/placement.h"

namespace nanomap {
namespace {

ClusteredDesign cluster_benchmark(const std::string& name, int level,
                                  const ArchParams& arch,
                                  Design* out_design = nullptr) {
  Design d = make_benchmark(name);
  CircuitParams p = extract_circuit_params(d.net);
  DesignSchedule sched;
  sched.folding = make_folding_config(p, level);
  sched.planes_share = !sched.folding.no_folding();
  for (int plane = 0; plane < p.num_plane; ++plane) {
    PlaneScheduleGraph g = build_schedule_graph(d, plane, sched.folding);
    sched.plane_results.push_back(schedule_plane(g, arch));
    sched.graphs.push_back(std::move(g));
  }
  ClusteredDesign cd = temporal_cluster(d, sched, arch);
  if (out_design != nullptr) *out_design = std::move(d);
  return cd;
}

TEST(Placement, AllSmbsGetDistinctSites) {
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  ClusteredDesign cd = cluster_benchmark("ex1", 0, arch);
  PlacementResult r = place_design(cd, arch);
  std::set<int> sites;
  for (int m = 0; m < cd.num_smbs; ++m)
    sites.insert(r.placement.site_of_smb[static_cast<std::size_t>(m)]);
  EXPECT_EQ(static_cast<int>(sites.size()), cd.num_smbs);
  EXPECT_GE(r.placement.grid.sites(), cd.num_smbs);
}

TEST(Placement, AnnealingImprovesOverRandomInitial) {
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  ClusteredDesign cd = cluster_benchmark("FIR", 0, arch);
  // Random baseline: average cost over fresh random placements.
  Rng rng(17);
  Placement random;
  random.grid = size_grid_for(cd.num_smbs);
  std::vector<int> sites(static_cast<std::size_t>(random.grid.sites()));
  for (int i = 0; i < random.grid.sites(); ++i)
    sites[static_cast<std::size_t>(i)] = i;
  rng.shuffle(sites);
  random.site_of_smb.assign(static_cast<std::size_t>(cd.num_smbs), 0);
  for (int m = 0; m < cd.num_smbs; ++m)
    random.site_of_smb[static_cast<std::size_t>(m)] =
        sites[static_cast<std::size_t>(m)];
  double random_cost = cost_to_double(placement_cost(cd, random, 0.0));

  PlacementResult placed = place_design(cd, arch);
  EXPECT_LT(placed.wirelength, random_cost * 0.8);
}

TEST(Placement, DeterministicForSeed) {
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  ClusteredDesign cd = cluster_benchmark("ex1", 1, arch);
  PlacementOptions opts;
  opts.seed = 5;
  PlacementResult a = place_design(cd, arch, opts);
  PlacementResult b = place_design(cd, arch, opts);
  EXPECT_EQ(a.placement.site_of_smb, b.placement.site_of_smb);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(Placement, CostFunctionHandChecked) {
  ClusteredDesign cd;
  cd.num_cycles = 1;
  cd.num_smbs = 3;
  PlacedNet n;
  n.driver_node = 0;
  n.cycle = 0;
  n.driver_smb = 0;
  n.sink_smbs = {1, 2};
  n.criticality = 1.0;
  cd.nets.push_back(n);

  Placement p;
  p.grid = {4, 4};
  // smb0 at (0,0), smb1 at (3,0), smb2 at (0,2): bbox = 3 + 2 = 5.
  p.site_of_smb = {0, 3, 8};
  // Both weights (1 and 1.5) are exact in fixed point.
  EXPECT_EQ(placement_cost(cd, p, 0.0), std::int64_t{5} << kCostFracBits);
  EXPECT_EQ(placement_cost(cd, p, 0.5),
            std::int64_t{15} << (kCostFracBits - 1));
  EXPECT_EQ(cost_to_double(placement_cost(cd, p, 0.5)), 7.5);
}

TEST(Placement, SingleSmbDesignTrivial) {
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  ClusteredDesign cd;
  cd.num_cycles = 1;
  cd.num_smbs = 1;
  PlacementResult r = place_design(cd, arch);
  EXPECT_EQ(r.placement.site_of_smb.size(), 1u);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

TEST(Routability, DenserDesignHasHigherUtilization) {
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  ClusteredDesign flat = cluster_benchmark("c5315", 0, arch);
  ClusteredDesign folded = cluster_benchmark("c5315", 1, arch);
  PlacementResult pf = place_design(flat, arch);
  PlacementResult pg = place_design(folded, arch);
  // The no-folding c5315 spreads over many SMBs with heavy inter-SMB
  // traffic; utilization should exceed the folded mapping's.
  EXPECT_GT(pf.routability.peak_utilization,
            pg.routability.peak_utilization * 0.8);
  EXPECT_GT(pf.routability.peak_utilization, 0.0);
  EXPECT_GE(pf.routability.peak_utilization, pf.routability.avg_utilization);
}

TEST(Routability, EmptyNetlistIsRoutable) {
  ArchParams arch = ArchParams::paper_instance();
  ClusteredDesign cd;
  cd.num_cycles = 1;
  cd.num_smbs = 2;
  Placement p;
  p.grid = {2, 2};
  p.site_of_smb = {0, 1};
  RoutabilityEstimate est = estimate_routability(cd, p, arch);
  EXPECT_TRUE(est.routable);
  EXPECT_DOUBLE_EQ(est.peak_utilization, 0.0);
}

TEST(Grid, SizingHasSlackAndFits) {
  for (int n : {0, 1, 5, 16, 100, 333}) {
    GridSize g = size_grid_for(n);
    EXPECT_GE(g.sites(), n);
    EXPECT_EQ(g.width, g.height);
  }
  EXPECT_GE(size_grid_for(100).sites(), 110);  // ~20% slack
}

// Exhaustive placement oracle. At default options the flow clusters ex1,
// FIR and ex2 into 5-7 SMBs on a 3x3 grid: at most 9!/2! = 181,440
// assignments, few enough to enumerate. The search scores each on the
// set-collapsed objective — one term per distinct SMB set, weighted by
// the summed quantized weights of its nets — which equals placement_cost
// exactly (checked at the optimum). The annealer can never beat the
// optimum; over placement seeds 1-10 its mean gap to it must stay within
// kMaxMeanGap. Measured mean (max) gaps: ex1 0% (0%), FIR 1.14% (2.62%),
// ex2 0.59% (2.12%); the schedule before the cool-started detailed pass
// had 0% (0%), 0.94% (7.93%) and 1.81% (5.83%), inside the bound too.
TEST(Placement, ExhaustiveOracleBoundsAnnealerOnSmallCircuits) {
  const FlowOptions fo;
  for (const char* name : {"ex1", "FIR", "ex2"}) {
    FlowResult r = run_nanomap(make_benchmark(name), fo);
    ASSERT_TRUE(r.feasible) << name << ": " << r.message;
    const ClusteredDesign& cd = r.clustered;
    const GridSize grid = size_grid_for(cd.num_smbs);
    ASSERT_LE(grid.sites(), 9) << name;

    const std::vector<std::int64_t> weights =
        quantized_net_weights(cd, kTimingWeight, grid);
    std::map<std::vector<int>, std::int64_t> weight_of_set;
    for (std::size_t i = 0; i < cd.nets.size(); ++i) {
      const PlacedNet& pn = cd.nets[i];
      std::vector<int> members = pn.sink_smbs;
      members.push_back(pn.driver_smb);
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
      weight_of_set[members] += weights[i];
    }

    Placement p;
    p.grid = grid;
    p.site_of_smb.assign(static_cast<std::size_t>(cd.num_smbs), -1);
    auto collapsed_cost = [&]() {
      std::int64_t c = 0;
      for (const auto& [members, w] : weight_of_set) {
        int xmin = grid.width, xmax = -1, ymin = grid.height, ymax = -1;
        for (int m : members) {
          xmin = std::min(xmin, p.x_of(m));
          xmax = std::max(xmax, p.x_of(m));
          ymin = std::min(ymin, p.y_of(m));
          ymax = std::max(ymax, p.y_of(m));
        }
        c += w * ((xmax - xmin) + (ymax - ymin));
      }
      return c;
    };

    std::int64_t optimum = std::numeric_limits<std::int64_t>::max();
    Placement best;
    long assignments = 0;
    std::vector<char> used(static_cast<std::size_t>(grid.sites()), 0);
    auto assign = [&](auto&& self, int smb) -> void {
      if (smb == cd.num_smbs) {
        ++assignments;
        const std::int64_t c = collapsed_cost();
        if (c < optimum) {
          optimum = c;
          best = p;
        }
        return;
      }
      for (int site = 0; site < grid.sites(); ++site) {
        if (used[static_cast<std::size_t>(site)]) continue;
        used[static_cast<std::size_t>(site)] = 1;
        p.site_of_smb[static_cast<std::size_t>(smb)] = site;
        self(self, smb + 1);
        used[static_cast<std::size_t>(site)] = 0;
      }
    };
    assign(assign, 0);
    EXPECT_EQ(placement_cost(cd, best, kTimingWeight), optimum)
        << name;

    constexpr double kMaxMeanGap = 0.025;
    double gap_sum = 0.0, gap_max = 0.0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      PlacementOptions po = fo.placement;
      po.seed = seed;
      PlacementResult annealed = place_design(cd, fo.arch, po);
      const std::int64_t got =
          placement_cost(cd, annealed.placement, kTimingWeight);
      EXPECT_EQ(cost_to_double(got), annealed.cost) << name;
      EXPECT_LE(optimum, got) << name << " seed " << seed;
      const double gap = static_cast<double>(got - optimum) /
                         static_cast<double>(optimum);
      gap_sum += gap;
      gap_max = std::max(gap_max, gap);
    }
    const double mean_gap = gap_sum / 10.0;
    std::printf("%-4s smbs %d sets %zu assignments %ld optimum %.4f "
                "gap over seeds 1-10: mean %.2f%% max %.2f%%\n",
                name, cd.num_smbs, weight_of_set.size(), assignments,
                cost_to_double(optimum), 100.0 * mean_gap, 100.0 * gap_max);
    EXPECT_LE(mean_gap, kMaxMeanGap) << name;
  }
}

// Every anneal ends at its exit temperature or on the frozen rule; on the
// paper circuits the frozen rule ends most of them. place.frozen_exits
// counts those, at most two per restart (fast and detailed pass) per
// place_design call, and like every counter it is thread-invariant.
TEST(Placement, FrozenExitsAreCountedAndThreadInvariant) {
  auto counter = [](const FlowResult& r, const std::string& site) {
    for (const TraceCounterRow& c : r.report.counters)
      if (c.site == site) return c.value;
    return 0L;
  };
  FlowOptions fo;
  fo.collect_trace = true;
  fo.placement.restarts = 3;
  long frozen_at_1 = -1;
  for (int threads : {1, 4}) {
    fo.threads = threads;
    FlowResult r = run_nanomap(make_benchmark("Paulin"), fo);
    ASSERT_TRUE(r.feasible) << r.message;
    const long frozen = counter(r, "place.frozen_exits");
    EXPECT_GT(frozen, 0) << "threads " << threads;
    EXPECT_LE(frozen, 2 * 3 * counter(r, "place.calls"))
        << "threads " << threads;
    if (frozen_at_1 < 0) frozen_at_1 = frozen;
    EXPECT_EQ(frozen, frozen_at_1) << "threads " << threads;
  }
}

}  // namespace
}  // namespace nanomap
