// Resilience of the flow engine (DESIGN.md §5e).
//
// 1. Deterministic fault injection: for every registered site and every
//    exception kind, an armed flow must return a clean FlowResult —
//    recovered via the ladder / folding fallback, or feasible=false with
//    a populated typed diagnostics trail. Never a crash, never a thrown
//    exception, never a thread-count-dependent byte.
// 2. The recovery ladder: a pinned synthetic-congestion case that fails
//    at the default router budgets must be recovered on a widened-channel
//    rung *without* a folding-level fallback, and the trail must record
//    exactly which rung succeeded. Route faults at different rungs and
//    levels of the ladder must leave no stale routing behind.
// 3. Up-front FlowOptions/RouterOptions validation (InputError naming the
//    offending field).
#include <gtest/gtest.h>

#include <algorithm>

#include "bitstream/bitmap.h"
#include "circuits/benchmarks.h"
#include "circuits/random_dag.h"
#include "flow/nanomap_flow.h"
#include "route/pathfinder_reference.h"
#include "util/fault.h"
#include "util/trace.h"

namespace nanomap {
namespace {

// --- fault plan parsing ----------------------------------------------------

TEST(FaultPlan, ParsesSiteHitAndKind) {
  FaultPlan p = parse_fault_plan("route.alloc");
  EXPECT_EQ(p.site, "route.alloc");
  EXPECT_EQ(p.nth_hit, 1);
  EXPECT_EQ(p.kind, FaultKind::kCheck);

  p = parse_fault_plan("place.screen:3");
  EXPECT_EQ(p.site, "place.screen");
  EXPECT_EQ(p.nth_hit, 3);

  p = parse_fault_plan("fds.schedule:2:alloc");
  EXPECT_EQ(p.kind, FaultKind::kAlloc);
  p = parse_fault_plan("fds.schedule:2:input");
  EXPECT_EQ(p.kind, FaultKind::kInput);
}

TEST(FaultPlan, RejectsMalformedPlans) {
  EXPECT_THROW(parse_fault_plan(""), InputError);
  EXPECT_THROW(parse_fault_plan(":1"), InputError);
  EXPECT_THROW(parse_fault_plan("site:"), InputError);
  EXPECT_THROW(parse_fault_plan("site:0"), InputError);
  EXPECT_THROW(parse_fault_plan("site:-1"), InputError);
  EXPECT_THROW(parse_fault_plan("site:abc"), InputError);
  EXPECT_THROW(parse_fault_plan("site:1:frobnicate"), InputError);
}

TEST(FaultPlan, ArmRejectsUnknownSites) {
  EXPECT_THROW(FaultScope("no.such.site:1"), InputError);
  EXPECT_FALSE(FaultScope::armed());
}

// --- the sweep -------------------------------------------------------------

FlowOptions small_flow_options() {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.seed = 3;
  return opts;
}

FlowErrorKind expected_kind(const std::string& kind) {
  if (kind == "input") return FlowErrorKind::kInput;
  if (kind == "alloc") return FlowErrorKind::kResourceExhausted;
  return FlowErrorKind::kInternal;
}

bool trail_has_kind(const FlowDiagnostics& diag, FlowErrorKind kind) {
  for (const FlowEvent& e : diag.events)
    if (e.kind == kind) return true;
  return false;
}

// Every registered site, every exception kind: the armed flow never
// throws, and the injected failure is always visible in the typed trail.
// With a free folding-level search the flow recovers by falling back to
// another level, so the result additionally stays feasible. The plan is
// armed by a test-owned FaultScope (the run's own, from an empty
// fault_plan, is a no-op), so the test can read the run's hit counts.
TEST(FaultInjection, EverySiteEveryKindReturnsCleanResult) {
  Design d = make_ex1(4);
  for (const std::string& site : FaultScope::known_sites()) {
    for (const char* kind : {"check", "input", "alloc"}) {
      FlowOptions opts = small_flow_options();
      FlowResult r;
      std::map<std::string, long> hits;
      {
        FaultScope faults(site + ":1:" + kind);
        ASSERT_NO_THROW(r = run_nanomap(d, opts))
            << "site " << site << " kind " << kind;
        hits = faults.hit_counts();
      }
      EXPECT_FALSE(FaultScope::armed());  // FaultScope disarmed
      // The site must actually have been exercised.
      EXPECT_GE(hits[site], 1) << site;
      // The injected failure is recorded with the right typed kind...
      EXPECT_TRUE(trail_has_kind(r.diagnostics, expected_kind(kind)))
          << "site " << site << " kind " << kind << "\n"
          << r.diagnostics.to_string();
      // ...and the free level search recovers around the one poisoned
      // stage call.
      EXPECT_TRUE(r.feasible)
          << "site " << site << " kind " << kind << ": " << r.message;
      if (r.feasible) {
        EXPECT_TRUE(r.routing.success);
      }
    }
  }
}

// With a forced folding level there is nothing to fall back to: the flow
// must degrade into a clean infeasible result whose error_kind matches
// the injected exception, with the trail populated.
TEST(FaultInjection, ForcedLevelDegradesCleanlyWithTypedKind) {
  Design d = make_ex1(6);  // level 2 maps cleanly without the fault
  for (const std::string& site : FaultScope::known_sites()) {
    for (const char* kind : {"check", "input", "alloc"}) {
      FlowOptions opts = small_flow_options();
      opts.forced_folding_level = 2;
      opts.fault_plan = site + ":1:" + kind;
      FlowResult r;
      ASSERT_NO_THROW(r = run_nanomap(d, opts))
          << "site " << site << " kind " << kind;
      EXPECT_FALSE(r.feasible) << "site " << site << " kind " << kind;
      EXPECT_FALSE(r.diagnostics.empty());
      EXPECT_EQ(r.error_kind, expected_kind(kind))
          << "site " << site << " kind " << kind << "\n"
          << r.diagnostics.to_string();
      EXPECT_FALSE(r.message.empty());
    }
  }
}

// Byte-identical results at --threads 1 vs N while a fault is armed: the
// fault sites sit in sequential flow code, so the Nth hit — and hence the
// whole recovery path — is thread-count independent.
TEST(FaultInjection, ArmedFlowIsThreadCountInvariant) {
  Design d = make_ex1(4);
  for (const std::string& site : FaultScope::known_sites()) {
    FlowOptions opts = small_flow_options();
    opts.fault_plan = site + ":1:check";
    opts.placement.restarts = 3;   // give the pool real parallel work
    opts.threads = 1;
    FlowResult serial = run_nanomap(d, opts);
    opts.threads = 4;
    FlowResult parallel = run_nanomap(d, opts);

    EXPECT_EQ(serial.feasible, parallel.feasible) << site;
    EXPECT_EQ(serial.message, parallel.message) << site;
    EXPECT_EQ(serial.diagnostics.to_string(),
              parallel.diagnostics.to_string())
        << site;
    EXPECT_EQ(serialize_bitmap(serial.bitmap),
              serialize_bitmap(parallel.bitmap))
        << site;
  }
}

// A later hit index fires mid-flow, proving hits count deterministically.
// The AT search schedules levels lazily, in lower-bound order, until no
// unscheduled level can beat the best one measured. On this circuit it
// schedules at least two levels (one plane each), so hit 2 poisons the
// second level's schedule_plane call; the search drops that level and
// still maps the circuit.
TEST(FaultInjection, NthHitTargetsLaterStageCalls) {
  Design d = make_ex1(4);
  FlowOptions opts = small_flow_options();
  FaultScope faults("fds.schedule:2:check");
  FlowResult r;
  ASSERT_NO_THROW(r = run_nanomap(d, opts));
  std::map<std::string, long> hits = faults.hit_counts();
  EXPECT_GE(hits["fds.schedule"], 2);
  EXPECT_TRUE(trail_has_kind(r.diagnostics, FlowErrorKind::kInternal));
  EXPECT_TRUE(std::any_of(r.diagnostics.events.begin(),
                          r.diagnostics.events.end(), [](const FlowEvent& e) {
                            return e.stage == "schedule" &&
                                   e.kind == FlowErrorKind::kInternal;
                          }))
      << "hit 2 never reached a schedule_plane call";
  EXPECT_TRUE(r.feasible) << r.message;
}

// route.alloc is hit in route_design's serial pre-pass, once per folding
// cycle in cycle order, before any cycle is negotiated on the pool. So on
// a forced level (one clustering) the hits are the route calls times the
// cycle count, hit N of the first call is folding cycle N, and the armed
// flow's trail is identical at threads 1 and 4.
TEST(FaultInjection, RouteAllocHitsAreFoldingCyclesAtAnyThreadCount) {
  Design d = make_ex1(6);
  FlowOptions opts = small_flow_options();
  opts.forced_folding_level = 2;
  opts.placement.restarts = 2;
  opts.collect_trace = true;
  std::map<std::string, long> hits;
  FlowResult probe;
  {
    FaultScope faults("route.alloc:1000:check");  // never fires; counts hits
    probe = run_nanomap(d, opts);
    hits = faults.hit_counts();
  }
  ASSERT_TRUE(probe.feasible) << probe.message;
  const int cycles = probe.clustered.num_cycles;
  ASSERT_GE(cycles, 2) << "level 2 no longer folds into several cycles";
  long route_calls = 0;
  for (const TraceCounterRow& c : probe.report.counters)
    if (c.site == "route.calls") route_calls = c.value;
  ASSERT_GE(route_calls, 1);
  EXPECT_EQ(hits["route.alloc"], route_calls * cycles);

  opts.collect_trace = false;
  for (int nth = 1; nth <= std::min(cycles, 4); ++nth) {
    opts.fault_plan = "route.alloc:" + std::to_string(nth) + ":check";
    opts.threads = 1;
    FlowResult serial;
    ASSERT_NO_THROW(serial = run_nanomap(d, opts)) << "hit " << nth;
    opts.threads = 4;
    FlowResult parallel;
    ASSERT_NO_THROW(parallel = run_nanomap(d, opts)) << "hit " << nth;
    EXPECT_FALSE(serial.feasible) << "hit " << nth;
    EXPECT_EQ(serial.message, parallel.message) << "hit " << nth;
    EXPECT_EQ(serial.diagnostics.to_string(),
              parallel.diagnostics.to_string())
        << "hit " << nth;
    EXPECT_NE(serial.diagnostics.to_string().find(
                  "(hit " + std::to_string(nth) + ")"),
              std::string::npos)
        << serial.diagnostics.to_string();
  }
}

// route.converge faults × the recovery ladder (DESIGN.md §5e). Every
// rung builds its own RR graph and routes from scratch, and a faulted
// climb abandons its level. Arm the fault at hit indices that land at
// different depths of the ladder (rung 0, a channel rung, a later level's
// climb) on a congested fabric where the first level exhausts its ladder,
// and prove the recovery never ships stale state: the final routing
// replays byte-identically on the reference router from the winning
// rung's fabric + budgets, and results are threads-1-vs-4 byte-identical.
TEST(FaultInjection, RouteConvergeFaultNeverLeavesStaleRouteState) {
  RandomDagSpec spec;
  spec.luts_per_plane = 80;
  spec.depth = 4;
  spec.num_inputs = 24;
  spec.seed = 11;
  Design d = make_random_design(spec);

  auto make_options = [] {
    FlowOptions opts;
    opts.arch = ArchParams::paper_instance_unbounded_k();
    opts.arch.direct_links_per_side = 1;
    opts.arch.len1_tracks = 3;
    opts.arch.len4_tracks = 1;
    opts.arch.global_tracks = 1;
    opts.router.max_iterations = 1;  // starved: the ladder must climb
    opts.placement.restarts = 2;     // give the pool real parallel work
    opts.seed = 3;
    return opts;
  };

  // Probe the clean flow (an armed plan counts hits even when its hit
  // index is never reached) and make sure it still has the shape the
  // sweep below aims at: the first level spends its whole ladder (two
  // placements x three rungs = route calls 1-6), so hit 1 is its rung 0,
  // hit 2 its first channel rung, and hit 7 rung 0 of a later level.
  const std::vector<int> sweep = {1, 2, 7};
  int first_level = -1;
  {
    FaultScope faults("route.converge:1000:check");
    FlowResult probe = run_nanomap(d, make_options());
    ASSERT_TRUE(probe.feasible) << probe.message;
    std::map<std::string, long> hits = faults.hit_counts();
    ASSERT_GT(hits["route.converge"], sweep.back())
        << "fabric no longer starves the first level; re-pin the case";
    std::vector<std::string> first_level_actions;
    for (const FlowEvent& e : probe.diagnostics.events) {
      if (e.stage != "route") continue;
      if (first_level < 0) first_level = e.level;
      if (e.level == first_level) first_level_actions.push_back(e.action);
    }
    EXPECT_EQ(first_level_actions,
              (std::vector<std::string>{"escalate", "escalate", "fallback",
                                        "escalate", "escalate", "fallback"}))
        << probe.diagnostics.to_string();
  }

  // The clean run's first nth-1 route calls are a deterministic prefix of
  // the faulted run, so every swept index is guaranteed to fire.
  for (int nth : sweep) {
    FlowOptions opts = make_options();
    opts.fault_plan = "route.converge:" + std::to_string(nth) + ":check";

    opts.threads = 1;
    FlowResult serial;
    ASSERT_NO_THROW(serial = run_nanomap(d, opts)) << "hit " << nth;
    // The parallel run arms the same plan through a test-owned FaultScope,
    // so its hit counts stay readable below.
    opts.threads = 4;
    FlowResult parallel;
    std::map<std::string, long> hits;
    {
      FaultScope faults(opts.fault_plan);
      FlowOptions unarmed = opts;
      unarmed.fault_plan.clear();
      ASSERT_NO_THROW(parallel = run_nanomap(d, unarmed)) << "hit " << nth;
      hits = faults.hit_counts();
    }

    // The armed hit index is reached in sequential flow code, so the
    // whole recovery path is thread-count independent, byte for byte.
    EXPECT_EQ(serial.feasible, parallel.feasible) << "hit " << nth;
    EXPECT_EQ(serial.message, parallel.message) << "hit " << nth;
    EXPECT_EQ(serial.diagnostics.to_string(), parallel.diagnostics.to_string())
        << "hit " << nth;
    EXPECT_EQ(serialize_bitmap(serial.bitmap), serialize_bitmap(parallel.bitmap))
        << "hit " << nth;

    // The injected failure fired, at the intended level, and is visible
    // in the typed trail...
    ASSERT_GE(hits["route.converge"], nth) << "hit " << nth;
    EXPECT_TRUE(trail_has_kind(serial.diagnostics, FlowErrorKind::kInternal))
        << "hit " << nth << "\n" << serial.diagnostics.to_string();
    for (const FlowEvent& e : serial.diagnostics.events) {
      if (e.kind == FlowErrorKind::kInternal) {
        EXPECT_EQ(e.level == first_level, nth < sweep.back())
            << "hit " << nth << ": " << e.detail;
      }
    }

    // ...and the free level search recovered around the poisoned climb.
    ASSERT_TRUE(serial.feasible) << "hit " << nth << ": " << serial.message;
    EXPECT_TRUE(serial.routing.success) << "hit " << nth;

    // No stale state: a cold reference re-route of the shipped
    // placement on the winning fabric reproduces the shipped routing
    // exactly.
    RrGraph rr(serial.placement.placement.grid, serial.routed_arch);
    RoutingResult ref =
        route_nets_reference(serial.clustered, serial.placement.placement, rr,
                             serial.routed_router);
    EXPECT_EQ(serial.routing.success, ref.success) << "hit " << nth;
    EXPECT_EQ(serial.routing.worst_iterations, ref.worst_iterations)
        << "hit " << nth;
    ASSERT_EQ(serial.routing.nets.size(), ref.nets.size()) << "hit " << nth;
    for (std::size_t i = 0; i < ref.nets.size(); ++i) {
      EXPECT_EQ(serial.routing.nets[i].net_index, ref.nets[i].net_index);
      EXPECT_EQ(serial.routing.nets[i].sink_smbs, ref.nets[i].sink_smbs);
      EXPECT_EQ(serial.routing.nets[i].sink_delay_ps,
                ref.nets[i].sink_delay_ps)
          << "hit " << nth << " net " << i;
      EXPECT_EQ(serial.routing.nets[i].wire_nodes, ref.nets[i].wire_nodes)
          << "hit " << nth << " net " << i;
    }
  }
}

// --- the recovery ladder ---------------------------------------------------

// Synthetic congestion: a fabric with narrowed channels and a router
// budget too small to negotiate it. Pinned behavior: rung 0 (default
// budgets) fails, rung 1 (channels x1.25 with raised max_iterations /
// pres_fac schedule) recovers — no folding-level fallback, no placement
// reseed.
TEST(RecoveryLadder, FirstChannelRungRecoversPinnedCongestionCase) {
  RandomDagSpec spec;
  spec.luts_per_plane = 80;
  spec.depth = 5;
  spec.num_inputs = 24;
  spec.seed = 9;
  Design d = make_random_design(spec);

  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.arch.direct_links_per_side = 4;
  opts.arch.len1_tracks = 7;
  opts.arch.len4_tracks = 3;
  opts.arch.global_tracks = 2;
  opts.forced_folding_level = 0;  // fallback impossible: the ladder must win
  opts.router.max_iterations = 2;  // default budget: too small to converge

  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message << "\n" << r.diagnostics.to_string();
  EXPECT_TRUE(r.routing.success);
  EXPECT_EQ(r.levels_tried, 1);

  int congestion_failures = 0;
  std::string recovered_detail;
  for (const FlowEvent& e : r.diagnostics.events) {
    if (e.stage == "route" && e.kind == FlowErrorKind::kRoutingCongestion)
      ++congestion_failures;
    if (e.stage == "route" && e.action == "recovered")
      recovered_detail = e.detail;
    EXPECT_NE(e.action, "retry") << "no placement reseed expected";
  }
  EXPECT_EQ(congestion_failures, 1);  // exactly rung 0 failed
  ASSERT_FALSE(recovered_detail.empty()) << r.diagnostics.to_string();
  EXPECT_NE(recovered_detail.find("rung 1 (widened channels x1.25"),
            std::string::npos)
      << recovered_detail;
}

// Same fabric, narrower still: a channel-width bump rung recovers.
TEST(RecoveryLadder, ChannelBumpRungRecoversNarrowerFabric) {
  RandomDagSpec spec;
  spec.luts_per_plane = 80;
  spec.depth = 5;
  spec.num_inputs = 24;
  spec.seed = 9;
  Design d = make_random_design(spec);

  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.arch.direct_links_per_side = 4;
  opts.arch.len1_tracks = 4;
  opts.arch.len4_tracks = 3;
  opts.arch.global_tracks = 2;
  opts.forced_folding_level = 0;
  opts.router.max_iterations = 2;

  FlowResult r = run_nanomap(d, opts);
  ASSERT_TRUE(r.feasible) << r.message << "\n" << r.diagnostics.to_string();
  std::string recovered_detail;
  for (const FlowEvent& e : r.diagnostics.events)
    if (e.stage == "route" && e.action == "recovered")
      recovered_detail = e.detail;
  ASSERT_FALSE(recovered_detail.empty()) << r.diagnostics.to_string();
  EXPECT_NE(recovered_detail.find("widened channels"), std::string::npos)
      << recovered_detail;
}

// The ladder itself is thread-count invariant (reseeds use derive_seed
// streams, rung order is fixed).
TEST(RecoveryLadder, EscalatedResultIsThreadCountInvariant) {
  RandomDagSpec spec;
  spec.luts_per_plane = 80;
  spec.depth = 5;
  spec.num_inputs = 24;
  spec.seed = 9;
  Design d = make_random_design(spec);

  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.arch.direct_links_per_side = 4;
  opts.arch.len1_tracks = 6;
  opts.arch.len4_tracks = 3;
  opts.arch.global_tracks = 2;
  opts.forced_folding_level = 0;
  opts.router.max_iterations = 2;
  opts.placement.restarts = 3;

  opts.threads = 1;
  FlowResult serial = run_nanomap(d, opts);
  opts.threads = 4;
  FlowResult parallel = run_nanomap(d, opts);
  ASSERT_TRUE(serial.feasible) << serial.message;
  EXPECT_EQ(serial.message, parallel.message);
  EXPECT_EQ(serial.diagnostics.to_string(),
            parallel.diagnostics.to_string());
  EXPECT_EQ(serialize_bitmap(serial.bitmap),
            serialize_bitmap(parallel.bitmap));
  EXPECT_DOUBLE_EQ(serial.delay_ns, parallel.delay_ns);
}

// Graceful degradation records *why* no-folding cannot rescue an
// over-constrained run instead of silently returning infeasible.
TEST(RecoveryLadder, DegradationTrailExplainsConstraintConflicts) {
  Design d = make_ex1(8);
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.objective = Objective::kMeetBoth;
  opts.area_constraint_le = 5;     // less than any mapping can reach
  opts.delay_constraint_ns = 0.1;  // absurd
  FlowResult r = run_nanomap(d, opts);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.error_kind, FlowErrorKind::kInfeasibleConstraint);
  ASSERT_FALSE(r.diagnostics.empty());
  bool saw_degrade = false, saw_reason = false;
  for (const FlowEvent& e : r.diagnostics.events) {
    if (e.action == "degrade") saw_degrade = true;
    if (e.action == "infeasible" &&
        e.detail.find("area constraint") != std::string::npos)
      saw_reason = true;
  }
  EXPECT_TRUE(saw_degrade) << r.diagnostics.to_string();
  EXPECT_TRUE(saw_reason) << r.diagnostics.to_string();
}

// --- option validation -----------------------------------------------------

TEST(OptionValidation, RejectsOutOfRangeFieldsNamingThem) {
  Design d = make_ex1(4);
  auto expect_reject = [&](auto mutate, const std::string& field) {
    FlowOptions opts = small_flow_options();
    mutate(&opts);
    try {
      run_nanomap(d, opts);
      FAIL() << "expected InputError for " << field;
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  expect_reject([](FlowOptions* o) { o->threads = -1; }, "threads");
  expect_reject([](FlowOptions* o) { o->area_constraint_le = -5; },
                "area_constraint_le");
  expect_reject([](FlowOptions* o) { o->delay_constraint_ns = -1.0; },
                "delay_constraint_ns");
  expect_reject([](FlowOptions* o) { o->forced_folding_level = -2; },
                "forced_folding_level");
  expect_reject([](FlowOptions* o) { o->placement.restarts = 0; },
                "placement.restarts");
  expect_reject([](FlowOptions* o) { o->placement.fast_effort = 0.0; },
                "placement.fast_effort");
  expect_reject([](FlowOptions* o) { o->router.max_iterations = 0; },
                "router.max_iterations");
  expect_reject([](FlowOptions* o) { o->router.pres_fac_mult = -2.0; },
                "router.pres_fac_mult");
  expect_reject([](FlowOptions* o) { o->router.initial_pres_fac = 0.0; },
                "router.initial_pres_fac");
  expect_reject([](FlowOptions* o) { o->fault_plan = "bogus plan::"; },
                "fault plan");
}

TEST(OptionValidation, DefaultsValidate) {
  EXPECT_NO_THROW(validate_flow_options(FlowOptions{}));
}

}  // namespace
}  // namespace nanomap
