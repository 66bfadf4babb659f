#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <random>

#include "circuits/benchmarks.h"
#include "circuits/random_dag.h"
#include "core/folding.h"
#include "core/schedule_graph.h"
#include "core/temporal_cluster.h"
#include "flow/nanomap_flow.h"
#include "route/pathfinder.h"
#include "route/pathfinder_reference.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace nanomap {
namespace {

// Builds a synthetic clustered design with explicit nets on a grid.
ClusteredDesign synthetic(int num_smbs, int num_cycles,
                          std::vector<PlacedNet> nets) {
  ClusteredDesign cd;
  cd.num_smbs = num_smbs;
  cd.num_cycles = num_cycles;
  cd.nets = std::move(nets);
  return cd;
}

Placement row_placement(int num_smbs, int width) {
  Placement p;
  p.grid = {width, width};
  for (int i = 0; i < num_smbs; ++i) p.site_of_smb.push_back(i);
  return p;
}

PlacedNet net(int driver_node, int cycle, int driver, std::vector<int> sinks) {
  PlacedNet n;
  n.driver_node = driver_node;
  n.cycle = cycle;
  n.driver_smb = driver;
  n.sink_smbs = std::move(sinks);
  return n;
}

TEST(PathFinder, RoutesSimpleNet) {
  ArchParams arch = ArchParams::paper_instance();
  ClusteredDesign cd = synthetic(2, 1, {net(0, 0, 0, {1})});
  Placement p = row_placement(2, 3);
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.nets.size(), 1u);
  EXPECT_GT(r.nets[0].sink_delay_ps[0], 0.0);
  EXPECT_GE(r.usage.total(), 1);
}

TEST(PathFinder, AdjacentNetPrefersDirectLink) {
  ArchParams arch = ArchParams::paper_instance();
  ClusteredDesign cd = synthetic(2, 1, {net(0, 0, 0, {1})});
  Placement p = row_placement(2, 3);
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.usage.direct, 1);
  EXPECT_EQ(r.usage.global, 0);
}

TEST(PathFinder, MultiSinkNetSharesTree) {
  ArchParams arch = ArchParams::paper_instance();
  ClusteredDesign cd = synthetic(4, 1, {net(0, 0, 0, {1, 2, 3})});
  Placement p = row_placement(4, 4);
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.nets[0].sink_smbs.size(), 3u);
  for (double d : r.nets[0].sink_delay_ps) EXPECT_GT(d, 0.0);
}

TEST(PathFinder, DelayGrowsWithDistance) {
  ArchParams arch = ArchParams::paper_instance();
  ClusteredDesign cd =
      synthetic(8, 1, {net(0, 0, 0, {1}), net(1, 0, 0, {7})});
  Placement p;
  p.grid = {8, 8};
  for (int i = 0; i < 8; ++i) p.site_of_smb.push_back(i);  // one row
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  ASSERT_TRUE(r.success);
  double near = 0.0, far = 0.0;
  for (const NetRoute& nr : r.nets) {
    if (cd.nets[static_cast<std::size_t>(nr.net_index)].driver_node == 0)
      near = nr.sink_delay_ps[0];
    else
      far = nr.sink_delay_ps[0];
  }
  EXPECT_GT(far, near);
}

TEST(PathFinder, CongestionNegotiationResolvesOveruse) {
  // Many nets between the same adjacent pair exceed the direct-link
  // capacity and must spill to length-1/length-4 wires, but still succeed.
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 2;
  arch.len1_tracks = 4;
  arch.len4_tracks = 2;
  arch.global_tracks = 2;
  std::vector<PlacedNet> nets;
  for (int i = 0; i < 9; ++i) nets.push_back(net(i, 0, 0, {1}));
  ClusteredDesign cd = synthetic(2, 1, std::move(nets));
  Placement p = row_placement(2, 4);
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  EXPECT_TRUE(r.success) << r.overused_nodes << " overused";
  EXPECT_GT(r.usage.len1 + r.usage.len4 + r.usage.global, 0);
}

TEST(PathFinder, ImpossibleDemandReportsFailure) {
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 1;
  arch.len1_tracks = 1;
  arch.len4_tracks = 0;
  arch.global_tracks = 0;
  std::vector<PlacedNet> nets;
  for (int i = 0; i < 40; ++i) nets.push_back(net(i, 0, 0, {1}));
  ClusteredDesign cd = synthetic(2, 1, std::move(nets));
  Placement p = row_placement(2, 2);
  RrGraph rr(p.grid, arch);
  RouterOptions opts;
  opts.max_iterations = 8;
  RoutingResult r = route_design(cd, p, rr, opts);
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.overused_nodes, 0);
}

TEST(PathFinder, CyclesAreIndependentCongestionDomains) {
  // The same dense traffic in different folding cycles does not conflict:
  // each cycle reconfigures the interconnect.
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 2;
  arch.len1_tracks = 2;
  arch.len4_tracks = 0;
  arch.global_tracks = 0;
  std::vector<PlacedNet> nets;
  for (int c = 0; c < 6; ++c)
    for (int i = 0; i < 4; ++i) nets.push_back(net(c * 4 + i, c, 0, {1}));
  ClusteredDesign cd = synthetic(2, 6, std::move(nets));
  Placement p = row_placement(2, 2);
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  EXPECT_TRUE(r.success);
}

TEST(PathFinder, DeterministicResults) {
  ArchParams arch = ArchParams::paper_instance();
  std::vector<PlacedNet> nets;
  for (int i = 0; i < 12; ++i) nets.push_back(net(i, 0, i % 4, {(i + 1) % 4}));
  ClusteredDesign cd = synthetic(4, 1, std::move(nets));
  Placement p = row_placement(4, 3);
  RrGraph rr(p.grid, arch);
  RoutingResult a = route_design(cd, p, rr);
  RoutingResult b = route_design(cd, p, rr);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_EQ(a.nets[i].wire_nodes, b.nets[i].wire_nodes);
    EXPECT_EQ(a.nets[i].sink_delay_ps, b.nets[i].sink_delay_ps);
  }
}

// ---------------------------------------------------------------------------
// Differential route-equivalence harness: the kernel must be
// byte-identical to the reference router for any input (DESIGN.md §5g).

void expect_identical(const RoutingResult& got, const RoutingResult& want,
                      const std::string& ctx) {
  EXPECT_EQ(got.success, want.success) << ctx;
  EXPECT_EQ(got.worst_iterations, want.worst_iterations) << ctx;
  EXPECT_EQ(got.overused_nodes, want.overused_nodes) << ctx;
  EXPECT_EQ(got.usage.direct, want.usage.direct) << ctx;
  EXPECT_EQ(got.usage.len1, want.usage.len1) << ctx;
  EXPECT_EQ(got.usage.len4, want.usage.len4) << ctx;
  EXPECT_EQ(got.usage.global, want.usage.global) << ctx;
  ASSERT_EQ(got.nets.size(), want.nets.size()) << ctx;
  for (std::size_t i = 0; i < got.nets.size(); ++i) {
    EXPECT_EQ(got.nets[i].net_index, want.nets[i].net_index) << ctx;
    EXPECT_EQ(got.nets[i].sink_smbs, want.nets[i].sink_smbs) << ctx;
    EXPECT_EQ(got.nets[i].sink_delay_ps, want.nets[i].sink_delay_ps) << ctx;
    EXPECT_EQ(got.nets[i].wire_nodes, want.nets[i].wire_nodes) << ctx;
  }
}

// Schedules, clusters and places a random DAG at one folding level — a
// miniature of the flow's front end, so the router sees realistic
// multi-cycle nets without paying for the whole flow per config.
struct Physical {
  Design d;
  DesignSchedule sched;
  ClusteredDesign cd;
  Placement p;
};

Physical build_physical(const RandomDagSpec& spec, int level,
                        const ArchParams& arch) {
  Physical ph;
  ph.d = make_random_design(spec);
  CircuitParams params = extract_circuit_params(ph.d.net);
  ph.sched.folding = make_folding_config(params, level);
  ph.sched.planes_share = !ph.sched.folding.no_folding();
  for (int plane = 0; plane < params.num_plane; ++plane) {
    PlaneScheduleGraph g =
        build_schedule_graph(ph.d, plane, ph.sched.folding);
    ph.sched.plane_results.push_back(schedule_plane(g, arch));
    ph.sched.graphs.push_back(std::move(g));
  }
  ph.cd = temporal_cluster(ph.d, ph.sched, arch);
  PlacementOptions popts;
  popts.fast_effort = 0.3;  // cheap placements; the router is under test
  popts.detailed_effort = 1.0;
  PlacementResult pr = place_design(ph.cd, arch, popts);
  ph.p = pr.placement;
  return ph;
}

// The differential sweep: seeds x folding levels x normal/narrowed
// fabrics, each case handed to `check` with a context label.
template <typename Check>
void for_each_sweep_case(Check check) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (int level : {0, 1, 2}) {
      for (bool narrow : {false, true}) {
        ArchParams arch = ArchParams::paper_instance_unbounded_k();
        if (narrow) {
          arch.direct_links_per_side = 2;
          arch.len1_tracks = 4;
          arch.len4_tracks = 2;
          arch.global_tracks = 2;
        }
        RandomDagSpec spec;
        spec.luts_per_plane = 30;
        spec.depth = 4;
        spec.num_inputs = 10;
        spec.seed = seed;
        Physical ph = build_physical(spec, level, arch);
        RrGraph rr(ph.p.grid, arch);
        std::string ctx = "seed " + std::to_string(seed) + " level " +
                          std::to_string(level) +
                          (narrow ? " narrow" : " normal");
        RouterOptions opts;
        opts.max_iterations = 20;  // allow honest failures on narrow fabrics
        check(ph, rr, opts, ctx);
      }
    }
  }
}

TEST(PathFinderDifferential, SweepSeedsLevelsChannels) {
  for_each_sweep_case([](const Physical& ph, const RrGraph& rr,
                         const RouterOptions& opts, const std::string& ctx) {
    expect_identical(route_design(ph.cd, ph.p, rr, opts),
                     route_nets_reference(ph.cd, ph.p, rr, opts), ctx);
  });
}

// Pools of width 1, 2, 4 and 0 (hardware concurrency).
std::vector<std::unique_ptr<ThreadPool>> test_pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (int width : {1, 2, 4, 0})
    pools.push_back(std::make_unique<ThreadPool>(width));
  return pools;
}

TEST(PathFinderDifferential, LadderReplayMatchesColdReference) {
  // Cycle 0 is trivially routable, cycle 1 is congested. A ladder-shaped
  // walk (starved budgets, raised budgets, widened channels) on a freshly
  // built graph per rung must stay byte-identical to a cold reference
  // route at every pool width.
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 2;
  arch.len1_tracks = 4;
  arch.len4_tracks = 2;
  arch.global_tracks = 2;
  std::vector<PlacedNet> nets;
  nets.push_back(net(100, 0, 2, {3}));
  for (int i = 0; i < 9; ++i) nets.push_back(net(i, 1, 0, {1}));
  ClusteredDesign cd = synthetic(4, 2, std::move(nets));
  Placement p = row_placement(4, 4);

  RouterOptions starved;
  starved.max_iterations = 2;
  RouterOptions raised = starved;
  raised.max_iterations = 60;
  raised.pres_fac_mult = 1.0 + (raised.pres_fac_mult - 1.0) * 1.5;
  raised.hist_fac *= 1.5;
  ArchParams wide = arch;
  wide.len1_tracks += 2;
  wide.len4_tracks += 1;
  wide.global_tracks += 1;
  const struct {
    const ArchParams* arch;
    const RouterOptions* router;
  } rungs[] = {{&arch, &starved}, {&arch, &raised}, {&wide, &raised}};

  const auto pools = test_pools();
  for (std::size_t r = 0; r < std::size(rungs); ++r) {
    RrGraph rr(p.grid, *rungs[r].arch);
    const RoutingResult want =
        route_nets_reference(cd, p, rr, *rungs[r].router);
    const std::string ctx = "rung " + std::to_string(r);
    expect_identical(route_design(cd, p, rr, *rungs[r].router), want, ctx);
    for (const auto& pool : pools)
      expect_identical(
          route_design(cd, p, rr, *rungs[r].router, pool.get()), want,
          ctx + " width " + std::to_string(pool->num_threads()));
    if (r == 2) {
      EXPECT_TRUE(want.success);
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent cycle negotiation: route_design on a pool of any width must
// reproduce the inline result byte for byte.

TEST(PathFinderConcurrent, PoolWidthsMatchInlineAndReference) {
  const auto pools = test_pools();
  for_each_sweep_case([&](const Physical& ph, const RrGraph& rr,
                          const RouterOptions& opts, const std::string& ctx) {
    const RoutingResult want = route_design(ph.cd, ph.p, rr, opts);
    expect_identical(want, route_nets_reference(ph.cd, ph.p, rr, opts), ctx);
    for (const auto& pool : pools) {
      const std::string wctx =
          ctx + " width " + std::to_string(pool->num_threads());
      const RoutingResult got =
          route_design(ph.cd, ph.p, rr, opts, pool.get());
      expect_identical(got, want, wctx);
    }
  });
}

TEST(PathFinderConcurrent, RepeatedSignaturesAcrossLadderRungs) {
  // Six cycles, two geometries repeated: cycles 0/2/4 are an easy net,
  // cycles 1/3 the same congested corner, cycle 5 a heavier corner. A
  // starved -> raised -> widened ladder, each rung on a freshly built
  // graph, must emit the same results at every pool width and match the
  // reference at every rung.
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 2;
  arch.len1_tracks = 4;
  arch.len4_tracks = 2;
  arch.global_tracks = 2;
  std::vector<PlacedNet> nets;
  int id = 0;
  for (int c = 0; c < 6; ++c) {
    if (c % 2 == 0 && c < 5) {
      nets.push_back(net(id++, c, 2, {3}));
    } else {
      const int corner = c == 5 ? 11 : 9;
      for (int i = 0; i < corner; ++i) nets.push_back(net(id++, c, 0, {1}));
    }
  }
  ClusteredDesign cd = synthetic(4, 6, std::move(nets));
  Placement p = row_placement(4, 4);

  RouterOptions starved;
  starved.max_iterations = 2;
  RouterOptions raised = starved;
  raised.max_iterations = 60;
  raised.pres_fac_mult = 1.0 + (raised.pres_fac_mult - 1.0) * 1.5;
  raised.hist_fac *= 1.5;
  ArchParams wide = arch;
  wide.len1_tracks += 2;
  wide.len4_tracks += 1;
  wide.global_tracks += 1;

  // Climbs the ladder through `pool`, building a fresh graph per rung.
  auto climb = [&](ThreadPool* pool) {
    std::vector<RoutingResult> results;
    for (int r = 0; r < 3; ++r) {
      RrGraph rr(p.grid, r == 2 ? wide : arch);
      const RouterOptions& opts = r == 0 ? starved : raised;
      results.push_back(route_design(cd, p, rr, opts, pool));
      expect_identical(results.back(), route_nets_reference(cd, p, rr, opts),
                       "rung " + std::to_string(r));
    }
    return results;
  };

  const std::vector<RoutingResult> want = climb(nullptr);
  EXPECT_FALSE(want[0].success);  // the starved rung really fails
  EXPECT_TRUE(want[2].success);
  for (const auto& pool : test_pools()) {
    const std::vector<RoutingResult> got = climb(pool.get());
    for (std::size_t r = 0; r < got.size(); ++r) {
      const std::string ctx = "width " + std::to_string(pool->num_threads()) +
                              " rung " + std::to_string(r);
      expect_identical(got[r], want[r], ctx);
    }
  }
}

TEST(PathFinderConcurrent, LowestFailingCycleRethrowsAtEveryWidth) {
  // Direct links only: a sink two sites from its driver is unreachable.
  // Cycles 1 and 3 each hold such a net; cycle 3 is the heavier one (so
  // it is dispatched first), but the error of cycle 1 must win.
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 2;
  arch.len1_tracks = 0;
  arch.len4_tracks = 0;
  arch.global_tracks = 0;
  std::vector<PlacedNet> nets;
  nets.push_back(net(0, 0, 0, {1}));
  nets.push_back(net(1, 1, 0, {2}));  // unreachable sink at (2,0)
  for (int i = 0; i < 4; ++i) nets.push_back(net(2 + i, 2, 1, {0}));
  for (int i = 0; i < 6; ++i) nets.push_back(net(6 + i, 3, 1, {2}));
  nets.push_back(net(12, 3, 0, {3}));  // unreachable sink at (3,0)
  ClusteredDesign cd = synthetic(4, 4, std::move(nets));
  Placement p = row_placement(4, 4);
  RrGraph rr(p.grid, arch);

  auto message = [&](ThreadPool* pool) {
    try {
      route_design(cd, p, rr, {}, pool);
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  const std::string want = message(nullptr);
  EXPECT_NE(want.find("sink unreachable at (2,0)"), std::string::npos)
      << want;
  for (const auto& pool : test_pools())
    EXPECT_EQ(message(pool.get()), want)
        << "width " << pool->num_threads();
}

TEST(PathFinder, IdenticalCyclesRouteIdentically) {
  // Two folding cycles with the same geometry are routed independently
  // in one call, and get the same trees and delays.
  std::vector<PlacedNet> nets;
  for (int c = 0; c < 2; ++c) {
    nets.push_back(net(c * 2, c, 0, {1, 2}));
    nets.push_back(net(c * 2 + 1, c, 3, {0}));
  }
  ClusteredDesign cd = synthetic(4, 2, std::move(nets));
  Placement p = row_placement(4, 3);
  ArchParams arch = ArchParams::paper_instance();
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  expect_identical(r, route_nets_reference(cd, p, rr), "identical cycles");
  ASSERT_EQ(r.nets.size(), 4u);
  for (std::size_t j = 0; j < 2; ++j) {
    const NetRoute& first = r.nets[j];
    const NetRoute& second = r.nets[j + 2];
    EXPECT_EQ(cd.nets[static_cast<std::size_t>(first.net_index)].cycle, 0);
    EXPECT_EQ(cd.nets[static_cast<std::size_t>(second.net_index)].cycle, 1);
    EXPECT_FALSE(first.wire_nodes.empty());
    EXPECT_EQ(first.wire_nodes, second.wire_nodes) << "net " << j;
    EXPECT_EQ(first.sink_smbs, second.sink_smbs) << "net " << j;
    EXPECT_EQ(first.sink_delay_ps, second.sink_delay_ps) << "net " << j;
  }
}

// ---------------------------------------------------------------------------
// Route-tree property/invariant checks (validate_routing) and fuzzed
// incremental edit sequences.

TEST(ValidateRouting, AcceptsRealResultsRejectsCorruptions) {
  // Needs a design big enough to span several SMBs: a single-SMB
  // clustering has no inter-SMB nets, and every corruption below would
  // be a no-op.
  Physical ph;
  {
    RandomDagSpec spec;
    spec.luts_per_plane = 96;
    spec.depth = 4;
    spec.num_inputs = 20;
    spec.seed = 3;
    ArchParams arch = ArchParams::paper_instance_unbounded_k();
    ph = build_physical(spec, 1, arch);
  }
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  RrGraph rr(ph.p.grid, arch);
  RoutingResult r = route_design(ph.cd, ph.p, rr);
  ASSERT_TRUE(r.success);
  ASSERT_FALSE(r.nets.empty());
  std::string why;
  EXPECT_TRUE(validate_routing(ph.cd, ph.p, rr, r, &why)) << why;

  // OPINs never feed IPINs directly, so stripping a net's wire nodes is
  // guaranteed to disconnect its sinks from the driver.
  RoutingResult broken = r;
  bool corrupted = false;
  for (NetRoute& nr : broken.nets) {
    if (!nr.wire_nodes.empty()) {
      nr.wire_nodes.clear();
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "no net with wire nodes to corrupt";
  EXPECT_FALSE(validate_routing(ph.cd, ph.p, rr, broken, &why));
  EXPECT_FALSE(why.empty());

  // A node listed twice violates the tree-set invariant.
  RoutingResult duped = r;
  for (NetRoute& nr : duped.nets) {
    if (!nr.wire_nodes.empty()) {
      nr.wire_nodes.push_back(nr.wire_nodes.front());
      break;
    }
  }
  EXPECT_FALSE(validate_routing(ph.cd, ph.p, rr, duped, &why));

  RoutingResult missing = r;
  missing.nets.pop_back();
  EXPECT_FALSE(validate_routing(ph.cd, ph.p, rr, missing, &why));

  RoutingResult doubled = r;
  doubled.nets.push_back(doubled.nets.front());
  EXPECT_FALSE(validate_routing(ph.cd, ph.p, rr, doubled, &why));
}

TEST(PathFinderIncremental, FuzzedEditSequencesStayIdentical) {
  // Random ladder walks: widen channels (a fresh graph), jiggle router
  // budgets or leave everything as is, and re-route — after every step
  // the kernel's result must equal a cold reference route on the same
  // graph and pass the structural invariants.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ArchParams arch = ArchParams::paper_instance_unbounded_k();
    arch.direct_links_per_side = 2;
    arch.len1_tracks = 3;
    arch.len4_tracks = 2;
    arch.global_tracks = 2;
    RandomDagSpec spec;
    spec.luts_per_plane = 24;
    spec.depth = 3;
    spec.num_inputs = 8;
    spec.seed = 40 + seed;
    Physical ph = build_physical(spec, 1, arch);
    auto rr = std::make_unique<RrGraph>(ph.p.grid, arch);
    RouterOptions opts;
    opts.max_iterations = 12;
    std::mt19937 rng(static_cast<unsigned>(1000 + seed));
    for (int step = 0; step < 6; ++step) {
      switch (rng() % 3) {
        case 0: {  // channel widening
          ArchParams wide = rr->arch();
          wide.len1_tracks += 1 + static_cast<int>(rng() % 2);
          wide.len4_tracks += static_cast<int>(rng() % 2);
          wide.global_tracks += static_cast<int>(rng() % 2);
          rr = std::make_unique<RrGraph>(ph.p.grid, wide);
          break;
        }
        case 1: {  // budget escalation
          opts.max_iterations += static_cast<int>(rng() % 20);
          opts.pres_fac_mult = 1.0 + (opts.pres_fac_mult - 1.0) * 1.3;
          opts.hist_fac *= 1.2;
          break;
        }
        default:  // no edit: a plain re-route
          break;
      }
      RoutingResult inc = route_design(ph.cd, ph.p, *rr, opts);
      RoutingResult ref = route_nets_reference(ph.cd, ph.p, *rr, opts);
      expect_identical(inc, ref,
                       "fuzz seed " + std::to_string(seed) + " step " +
                           std::to_string(step));
      std::string why;
      EXPECT_TRUE(validate_routing(ph.cd, ph.p, *rr, inc, &why)) << why;
    }
  }
}

TEST(PathFinderStarvation, ExtremePresFacReportsOveruseHonestly) {
  // Regression for the seed's absolute-epsilon stale-entry check
  // (DESIGN.md §5g): at pres_fac ~1e16 the A* priority `cost + est`
  // rounds away far more than 1e-12, so `prio - est` exceeded
  // `best_cost + 1e-12` for *fresh* queue entries, the wavefront starved,
  // and the router raised "sink unreachable" even though a (congested)
  // path exists. With the relative-epsilon guard the router terminates
  // honestly: overused, success = false, structurally valid routes.
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 0;  // only length-1 wires exist, capacity 1
  arch.len1_tracks = 1;
  arch.len4_tracks = 0;
  arch.global_tracks = 0;
  std::vector<PlacedNet> nets;
  for (int i = 0; i < 3; ++i) nets.push_back(net(i, 0, 0, {5}));
  ClusteredDesign cd = synthetic(6, 1, std::move(nets));
  Placement p = row_placement(6, 6);
  RrGraph rr(p.grid, arch);
  RouterOptions opts;
  opts.initial_pres_fac = 1e16;  // what ~60 escalations reach on an
                                 // unroutable fabric, applied directly
  opts.max_iterations = 3;
  RoutingResult r = route_design(cd, p, rr, opts);
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.overused_nodes, 0);
  std::string why;
  EXPECT_TRUE(validate_routing(cd, p, rr, r, &why)) << why;
  // The fix lives in the reference router too (identity over divergence).
  expect_identical(r, route_nets_reference(cd, p, rr, opts), "starvation");
}

// ---------------------------------------------------------------------------
// The stall rule: a failing cycle gives up once its overused-node count
// has not reached a new strict minimum in kStallWindow consecutive
// iterations (DESIGN.md §5g).

// `count` nets of 1-3 sinks each on a width x width grid, dealt to
// `cycles` folding cycles round-robin, drawn from a seeded mt19937.
ClusteredDesign random_nets(unsigned seed, int width, int count,
                            int cycles) {
  std::mt19937 rng(seed);
  const int smbs = width * width;
  std::vector<PlacedNet> nets;
  for (int i = 0; i < count; ++i) {
    std::vector<int> sinks;
    const int from = static_cast<int>(rng() % smbs);
    for (int s = 1 + static_cast<int>(rng() % 3); s > 0; --s) {
      const int sink = static_cast<int>(rng() % smbs);
      if (sink != from) sinks.push_back(sink);
    }
    if (sinks.empty()) sinks.push_back((from + 1) % smbs);
    std::sort(sinks.begin(), sinks.end());
    sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());
    nets.push_back(net(i, i % cycles, from, std::move(sinks)));
  }
  return synthetic(smbs, cycles, std::move(nets));
}

// Narrow channels on which most random_nets cycles cannot converge.
ArchParams stall_arch() {
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 1;
  arch.len1_tracks = 3;
  arch.len4_tracks = 1;
  arch.global_tracks = 1;
  return arch;
}

// Overused nodes after iterations 1..n of a single-cycle design. A run
// with max_iterations = k ends after iteration k (n never exceeds the
// iteration the full run stopped at), and its first k iterations are
// those of any longer run.
std::vector<long> overuse_history(const ClusteredDesign& cd,
                                  const Placement& p, const RrGraph& rr,
                                  int n) {
  std::vector<long> history;
  for (int k = 1; k <= n; ++k) {
    RouterOptions opts;
    opts.max_iterations = k;
    const RoutingResult r = route_design(cd, p, rr, opts);
    EXPECT_EQ(r.worst_iterations, k);
    history.push_back(r.overused_nodes);
  }
  return history;
}

// The iteration of the last new strict minimum of `history`.
int last_new_minimum(const std::vector<long>& history) {
  long best = std::numeric_limits<long>::max();
  int at = 0;
  for (std::size_t i = 0; i < history.size(); ++i)
    if (history[i] < best) {
      best = history[i];
      at = static_cast<int>(i) + 1;
    }
  return at;
}

// Reads one counter of a snapshot; a site never recorded reads 0.
long counter_of(const std::vector<TraceCounterRow>& counters,
                const std::string& site) {
  for (const TraceCounterRow& c : counters)
    if (c.site == site) return c.value;
  return 0;
}

TEST(PathFinder, PlateauedOveruseGivesUpBeforeTheBudget) {
  // 40 nets over one direct link and one length-1 track: the overuse
  // sits at its first-iteration value, so the cycle stops after
  // 1 + kStallWindow of its 60 iterations, as the reference does.
  ArchParams arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 1;
  arch.len1_tracks = 1;
  arch.len4_tracks = 0;
  arch.global_tracks = 0;
  std::vector<PlacedNet> nets;
  for (int i = 0; i < 40; ++i) nets.push_back(net(i, 0, 0, {1}));
  ClusteredDesign cd = synthetic(2, 1, std::move(nets));
  Placement p = row_placement(2, 2);
  RrGraph rr(p.grid, arch);
  const RouterOptions opts;
  TraceCollector collector;
  RoutingResult r;
  {
    TraceScope scope(&collector);
    r = route_design(cd, p, rr, opts);
  }
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.overused_nodes, 0);
  EXPECT_LT(r.worst_iterations, opts.max_iterations);
  EXPECT_EQ(r.worst_iterations, 1 + kStallWindow);
  const std::vector<long> history =
      overuse_history(cd, p, rr, r.worst_iterations);
  EXPECT_EQ(last_new_minimum(history), 1);
  EXPECT_EQ(history.back(), r.overused_nodes);
  EXPECT_EQ(counter_of(collector.snapshot().counters, "route.stalled_cycles"),
            1);
  expect_identical(r, route_nets_reference(cd, p, rr, opts), "plateau");
}

TEST(PathFinder, LateNewMinimumKeepsNegotiating) {
  // This cycle's overuse reaches a new minimum at iteration 16, after
  // nine iterations without one. The window counts from that minimum,
  // so negotiation runs on to iteration 16 + kStallWindow: a window
  // counted from the first iteration would have stopped it at 11.
  const int width = 5;
  ClusteredDesign cd = random_nets(36, width, 39, 1);
  Placement p = row_placement(width * width, width);
  RrGraph rr(p.grid, stall_arch());
  const RoutingResult r = route_design(cd, p, rr);
  EXPECT_FALSE(r.success);
  const std::vector<long> history =
      overuse_history(cd, p, rr, r.worst_iterations);
  const int late = last_new_minimum(history);
  EXPECT_EQ(late, 16);
  EXPECT_GT(late, kStallWindow);
  EXPECT_EQ(r.worst_iterations, late + kStallWindow);
  expect_identical(r, route_nets_reference(cd, p, rr), "late minimum");
}

TEST(PathFinder, StalledCyclesMatchAtThreadsOneAndFour) {
  // Four congested cycles that stop at different iterations: the trees,
  // the per-cycle iteration counts and the stalled-cycle count are the
  // same on a 1-thread and a 4-thread pool, and equal the reference.
  const int width = 5;
  ClusteredDesign cd = random_nets(7, width, 4 * 39, 4);
  Placement p = row_placement(width * width, width);
  RrGraph rr(p.grid, stall_arch());
  const RoutingResult want = route_nets_reference(cd, p, rr);
  std::vector<TraceSnapshot> snaps;
  for (int width_threads : {1, 4}) {
    ThreadPool pool(width_threads);
    TraceCollector collector;
    {
      TraceScope scope(&collector);
      expect_identical(route_design(cd, p, rr, {}, &pool), want,
                       "threads " + std::to_string(width_threads));
    }
    snaps.push_back(collector.snapshot());
  }
  EXPECT_GE(counter_of(snaps[0].counters, "route.stalled_cycles"), 2);
  EXPECT_EQ(snaps[0].render(), snaps[1].render());
  const auto iterations = std::find_if(
      snaps[0].values.begin(), snaps[0].values.end(),
      [](const TraceValueRow& v) {
        return v.site == "route.iterations_per_cycle";
      });
  ASSERT_NE(iterations, snaps[0].values.end());
  EXPECT_EQ(iterations->count, 4);
  // The cycles stopped at different iterations, all before the budget.
  EXPECT_LT(iterations->min, iterations->max);
  EXPECT_LT(iterations->max, RouterOptions{}.max_iterations);
}

TEST(PathFinder, StalledCyclesCounterReadsZeroOnCleanPaperCircuit) {
  // Every cycle of a paper circuit on the paper fabric converges within
  // a few iterations, so the rule never fires and the counter reads 0.
  FlowOptions opts;
  opts.collect_trace = true;
  const FlowResult r = run_nanomap(make_benchmark("Paulin"), opts);
  ASSERT_TRUE(r.feasible) << r.message;
  EXPECT_TRUE(r.routing.success);
  EXPECT_LE(r.routing.worst_iterations, kStallWindow);
  EXPECT_GT(counter_of(r.report.counters, "route.calls"), 0);
  EXPECT_EQ(counter_of(r.report.counters, "route.stalled_cycles"), 0);
}

TEST(PathFinder, UsageCountsByType) {
  ArchParams arch = ArchParams::paper_instance();
  ClusteredDesign cd = synthetic(2, 1, {net(0, 0, 0, {1})});
  Placement p;
  p.grid = {8, 8};
  p.site_of_smb = {0, 7};  // far apart in one row
  RrGraph rr(p.grid, arch);
  RoutingResult r = route_design(cd, p, rr);
  ASSERT_TRUE(r.success);
  // A 7-site span should use long wires, not 7 direct hops.
  EXPECT_GT(r.usage.len4 + r.usage.global, 0);
}

}  // namespace
}  // namespace nanomap
