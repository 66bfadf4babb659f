// Determinism contract of the parallel design-space explorer
// (flow/explore.h, DESIGN.md §5h): every candidate is byte-identical to a
// standalone forced-level flow job, and run_nanomap_explore folds the
// candidate results identically at any thread count, also with a fault
// armed in one candidate — winner, Pareto front, per-candidate bytes and
// the merged trail all byte-identical. Plus: a sweep over a dead fabric
// reports defect-infeasible, the explore RunReport section round-trips
// through the real JSON parser, and a traced sweep only hits registered
// sites.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "arch/defect.h"
#include "bitstream/bitmap.h"
#include "circuits/benchmarks.h"
#include "circuits/random_dag.h"
#include "flow/explore.h"
#include "util/json.h"
#include "util/trace.h"

namespace nanomap {
namespace {

FlowOptions base_options() {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance_unbounded_k();
  opts.seed = 3;
  return opts;
}

// Strictly wider channels, otherwise identical: the fabric variant the
// sweeps below cross with every level.
ArchParams wider(const ArchParams& base) {
  ArchParams arch = base;
  arch.len1_tracks += 2;
  arch.len4_tracks += 1;
  arch.global_tracks += 1;
  return arch;
}

Design small_random_design(std::uint64_t seed) {
  RandomDagSpec spec;
  spec.num_planes = 1;
  spec.luts_per_plane = 40;
  spec.depth = 6;
  spec.regs_per_plane = 4;
  spec.seed = seed;
  return make_random_design(spec);
}

// Byte fingerprint of one candidate's physical output (the
// determinism_test idiom: memcpy'd doubles, stable bitmap serialization).
std::string result_fingerprint(const FlowResult& r) {
  std::string fp;
  auto add_int = [&](long long v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    fp.append(buf, sizeof v);
  };
  auto add_double = [&](double v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    fp.append(buf, sizeof v);
  };
  add_int(r.feasible ? 1 : 0);
  add_int(static_cast<long long>(r.error_kind));
  add_int(r.num_les);
  add_int(r.clustered.num_cycles);
  add_double(r.delay_ns);
  add_int(r.placement.placement.grid.width);
  add_int(r.placement.placement.grid.height);
  for (int site : r.placement.placement.site_of_smb) add_int(site);
  add_int(static_cast<long long>(r.routing.nets.size()));
  for (const NetRoute& nr : r.routing.nets) {
    add_int(nr.net_index);
    for (int s : nr.sink_smbs) add_int(s);
    for (double d : nr.sink_delay_ps) add_double(d);
    for (int n : nr.wire_nodes) add_int(n);
  }
  std::vector<std::uint8_t> bytes = serialize_bitmap(r.bitmap);
  fp.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return fp;
}

// The whole fold: every candidate's bytes, the winner, the Pareto front,
// the per-candidate flags, and the merged diagnostic trail.
std::string fold_fingerprint(const ExploreResult& ex) {
  std::string fp;
  auto add_int = [&](long long v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    fp.append(buf, sizeof v);
  };
  add_int(ex.winner_index);
  for (int idx : ex.explore.pareto) add_int(idx);
  for (const FlowResult& r : ex.results) fp += result_fingerprint(r);
  for (const ExploreCandidateOutcome& o : ex.explore.outcomes) {
    add_int(o.on_pareto_front ? 1 : 0);
    add_int(o.winner ? 1 : 0);
    fp += o.label + "|" + o.error_kind;
  }
  for (const FlowEvent& e : ex.report.events) {
    fp += e.stage + "|" + e.action + "|" + e.detail;
    add_int(e.level);
    add_int(e.attempt);
    add_int(static_cast<long long>(e.kind));
  }
  return fp;
}

ExploreResult run_explore(const Design& d, const FlowOptions& flow,
                          const ExploreOptions& eopts, int threads) {
  FlowOptions f = flow;
  f.threads = threads;
  return run_nanomap_explore(d, f, eopts);
}

// --- every candidate == a standalone forced-level job ----------------------

TEST(Explore, SingleCandidateMatchesForcedLevelFlow) {
  // {L1, L2} x {base, wide}: each candidate is one cold job, so its bytes
  // must equal a standalone forced-level run_nanomap on that
  // candidate's arch.
  Design d = make_benchmark("ex1");
  FlowOptions flow = base_options();
  ExploreOptions eopts;
  eopts.levels = {1, 2};
  FabricVariant v;
  v.label = "wide";
  v.arch = wider(flow.arch);
  eopts.variants.push_back(v);
  ExploreResult ex = run_nanomap_explore(d, flow, eopts);
  ASSERT_TRUE(ex.feasible);
  ASSERT_EQ(ex.results.size(), 4u);

  for (const ExploreCandidateOutcome& o : ex.explore.outcomes) {
    FlowOptions forced = flow;
    forced.forced_folding_level = o.level;
    if (o.variant == 1) forced.arch = v.arch;
    FlowResult want = run_nanomap(d, forced);
    ASSERT_TRUE(want.feasible) << o.label << ": " << want.message;
    EXPECT_EQ(result_fingerprint(ex.results[static_cast<std::size_t>(
                  o.index)]),
              result_fingerprint(want))
        << o.label;
  }
  EXPECT_TRUE(
      ex.explore.outcomes[static_cast<std::size_t>(ex.winner_index)].winner);
  EXPECT_EQ(result_fingerprint(ex.winner),
            result_fingerprint(
                ex.results[static_cast<std::size_t>(ex.winner_index)]));
}

// --- thread count ----------------------------------------------------------

TEST(Explore, SerialParallelIdenticalAcrossSeeds) {
  // The differential sweep: 6 seeds x {L1, L2, no-fold}; the whole fold
  // must be byte-identical on one thread (candidates inline), on four,
  // and on the hardware default.
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u, 66u}) {
    Design d = small_random_design(seed);
    FlowOptions flow = base_options();
    ExploreOptions eopts;
    eopts.levels = {1, 2, 0};
    ExploreResult t1 = run_explore(d, flow, eopts, 1);
    ASSERT_TRUE(t1.feasible) << "seed " << seed;  // real physical runs
    for (int threads : {4, 0}) {
      ExploreResult tn = run_explore(d, flow, eopts, threads);
      EXPECT_EQ(fold_fingerprint(t1), fold_fingerprint(tn))
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(t1.winner_index, tn.winner_index)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(Explore, ThreadCountInvariantReportBytes) {
  // Threads 1 vs 4: the full report JSON must agree byte for byte once
  // run.threads (which records the request) is normalized.
  Design d = make_benchmark("ex1");
  FlowOptions flow = base_options();
  ExploreOptions eopts;
  eopts.levels = {1, 2, 0};
  FabricVariant v;
  v.label = "wide";
  v.arch = wider(flow.arch);
  eopts.variants.push_back(v);

  ExploreResult t1 = run_explore(d, flow, eopts, 1);
  ExploreResult t4 = run_explore(d, flow, eopts, 4);
  EXPECT_EQ(serialize_bitmap(t1.winner.bitmap),
            serialize_bitmap(t4.winner.bitmap));
  EXPECT_EQ(t1.explore.pareto, t4.explore.pareto);
  RunReport normalized = t4.report;
  normalized.threads = t1.report.threads;
  EXPECT_EQ(t1.report.to_json(/*include_timings=*/false),
            normalized.to_json(/*include_timings=*/false));
}

TEST(Explore, WinnerMatchesSerialSearchForMeetBoth) {
  // kMeetBoth commits to the first feasible candidate in preference
  // order — the same rule run_nanomap's serial search applies — so with
  // derived candidate levels the explorer must reproduce the serial
  // search's chosen level and its physical bytes.
  Design d = make_benchmark("ex1");
  FlowOptions flow = base_options();
  flow.objective = Objective::kMeetBoth;
  FlowResult serial = run_nanomap(d, flow);
  ASSERT_TRUE(serial.feasible) << serial.message;
  ExploreResult ex = run_nanomap_explore(d, flow);  // levels derived
  ASSERT_TRUE(ex.feasible);
  EXPECT_EQ(ex.winner.folding.level, serial.folding.level);
  EXPECT_EQ(serialize_bitmap(ex.winner.bitmap),
            serialize_bitmap(serial.bitmap));
}

// --- fault injection in one candidate --------------------------------------

TEST(Explore, FaultInOneCandidateLeavesSurvivorsByteIdentical) {
  // Arm fds.schedule in candidate 0 only: that candidate degrades to a
  // clean infeasible result with the injected kind, every other
  // candidate matches the fault-free sweep byte for byte, and the
  // surviving fold is identical at threads 1, 4 and the hardware default.
  Design d = make_benchmark("ex1");
  FlowOptions flow = base_options();
  ExploreOptions eopts;
  eopts.levels = {1, 2, 0};

  ExploreResult clean = run_explore(d, flow, eopts, 1);
  ASSERT_TRUE(clean.feasible);

  FlowOptions armed = flow;
  armed.fault_plan = "fds.schedule:1:check";
  ExploreOptions fopts = eopts;
  fopts.fault_candidate = 0;
  ExploreResult t1 = run_explore(d, armed, fopts, 1);

  EXPECT_FALSE(t1.results[0].feasible);
  EXPECT_EQ(t1.explore.outcomes[0].error_kind,
            flow_error_kind_name(FlowErrorKind::kInternal));
  for (std::size_t i = 1; i < t1.results.size(); ++i)
    EXPECT_EQ(result_fingerprint(t1.results[i]),
              result_fingerprint(clean.results[i]))
        << "candidate " << i;
  for (int threads : {4, 0})
    EXPECT_EQ(fold_fingerprint(t1),
              fold_fingerprint(run_explore(d, armed, fopts, threads)))
        << "threads " << threads;
  EXPECT_NE(t1.winner_index, 0);
  EXPECT_TRUE(t1.feasible);
}

// --- failure kind of an all-infeasible sweep --------------------------------

TEST(Explore, DeadFabricReportsDefectInfeasible) {
  // 95% dead SMB sites: no candidate fits the surviving fabric. The sweep
  // must report the flow's own dominant kind, as run_nanomap does.
  Design d = make_benchmark("ex1");
  FlowOptions flow;
  flow.arch.defects = parse_defect_rates("seed=1,smb=0.95");
  ExploreResult ex = run_nanomap_explore(d, flow);
  ASSERT_FALSE(ex.feasible);
  ASSERT_FALSE(ex.results.empty());
  for (const ExploreCandidateOutcome& o : ex.explore.outcomes)
    EXPECT_EQ(o.error_kind,
              flow_error_kind_name(FlowErrorKind::kDefectInfeasible))
        << o.label;
  EXPECT_EQ(ex.winner.error_kind, FlowErrorKind::kDefectInfeasible);
  EXPECT_EQ(ex.report.error_kind,
            flow_error_kind_name(FlowErrorKind::kDefectInfeasible));
  EXPECT_EQ(exit_code_for(ex.winner), 1);
  EXPECT_EQ(run_nanomap(d, flow).error_kind,
            FlowErrorKind::kDefectInfeasible);
}

// --- Pareto front properties -----------------------------------------------

TEST(Explore, ParetoFrontIsConsistent) {
  Design d = make_benchmark("ex1");
  FlowOptions flow = base_options();
  ExploreOptions eopts;
  eopts.levels = {1, 2, 3, 0};
  ExploreResult ex = run_nanomap_explore(d, flow, eopts);
  ASSERT_TRUE(ex.feasible);
  ASSERT_FALSE(ex.explore.pareto.empty());
  // Front members are feasible, flagged, and mutually non-dominated.
  for (int idx : ex.explore.pareto) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, static_cast<int>(ex.results.size()));
    EXPECT_TRUE(ex.results[static_cast<std::size_t>(idx)].feasible);
    EXPECT_TRUE(
        ex.explore.outcomes[static_cast<std::size_t>(idx)].on_pareto_front);
  }
  for (int a : ex.explore.pareto) {
    for (int b : ex.explore.pareto) {
      if (a == b) continue;
      const FlowResult& ra = ex.results[static_cast<std::size_t>(a)];
      const FlowResult& rb = ex.results[static_cast<std::size_t>(b)];
      const bool le = rb.num_les <= ra.num_les &&
                      rb.delay_ns <= ra.delay_ns &&
                      rb.clustered.num_cycles <= ra.clustered.num_cycles;
      const bool strict = rb.num_les < ra.num_les ||
                          rb.delay_ns < ra.delay_ns ||
                          rb.clustered.num_cycles < ra.clustered.num_cycles;
      EXPECT_FALSE(le && strict)
          << "front member " << a << " dominated by " << b;
    }
  }
}

// --- trace integration -----------------------------------------------------

TEST(Explore, TracedSweepHitsOnlyRegisteredSites) {
  Design d = make_benchmark("ex1");
  FlowOptions flow = base_options();
  flow.collect_trace = true;
  ExploreOptions eopts;
  eopts.levels = {1, 2, 0};
  FabricVariant v;
  v.label = "wide";
  v.arch = wider(flow.arch);
  eopts.variants.push_back(v);
  ExploreResult ex = run_nanomap_explore(d, flow, eopts);
  ASSERT_TRUE(ex.feasible);

  // Candidate jobs run with spans muted: the span tree is just the
  // explorer's own "explore" span, at any thread count.
  ASSERT_EQ(ex.report.stages.size(), 1u);
  EXPECT_EQ(ex.report.stages[0].name, "explore");

  long candidates = 0, route_calls = 0;
  const auto& counter_reg = Trace::known_counter_sites();
  std::set<std::string> known(counter_reg.begin(), counter_reg.end());
  for (const TraceCounterRow& c : ex.report.counters) {
    EXPECT_TRUE(known.count(c.site)) << "unregistered site " << c.site;
    if (c.site == "explore.candidates") candidates = c.value;
    if (c.site == "route.calls") route_calls = c.value;
  }
  EXPECT_EQ(candidates, 6);
  EXPECT_GE(route_calls, 1);
}

// --- report schema ---------------------------------------------------------

TEST(Explore, ReportExploreSectionRoundTripsThroughParser) {
  Design d = make_benchmark("ex1");
  FlowOptions flow = base_options();
  ExploreOptions eopts;
  eopts.levels = {1, 0};
  ExploreResult ex = run_nanomap_explore(d, flow, eopts);
  ASSERT_TRUE(ex.feasible);

  JsonValue root = parse_json(ex.report.to_json(true));
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* explore = root.find("explore");
  ASSERT_NE(explore, nullptr);
  ASSERT_EQ(explore->kind, JsonValue::Kind::kObject);
  for (const char* key : {"version", "candidates", "feasible_candidates",
                          "winner_index", "wall_seconds"})
    ASSERT_NE(explore->find(key), nullptr) << key;
  EXPECT_EQ(explore->find("version")->number, 2.0);
  EXPECT_EQ(root.find("version")->number, 1.0);  // RunReport stays v1
  // Version 2 dropped the warm-start fields and the mode.
  for (const char* key : {"mode", "warm_starts"})
    EXPECT_EQ(explore->find(key), nullptr) << key;
  EXPECT_EQ(explore->find("candidates")->number, 2.0);
  EXPECT_EQ(explore->find("winner_index")->number,
            static_cast<double>(ex.winner_index));
  const JsonValue* outcomes = explore->find("outcomes");
  ASSERT_NE(outcomes, nullptr);
  ASSERT_EQ(outcomes->items.size(), 2u);
  for (const char* key :
       {"index", "level", "variant", "label", "feasible", "error_kind",
        "num_les", "num_cycles", "delay_ns", "area_delay_product",
        "on_pareto_front", "winner", "cpu_seconds"})
    EXPECT_NE(outcomes->items[0].find(key), nullptr) << key;
  for (const char* key : {"warm_schedule", "warm_route_state"})
    EXPECT_EQ(outcomes->items[0].find(key), nullptr) << key;
  const JsonValue* pareto = explore->find("pareto");
  ASSERT_NE(pareto, nullptr);
  EXPECT_EQ(pareto->kind, JsonValue::Kind::kArray);
  // A plain run_nanomap report carries no explore section.
  FlowResult plain = run_nanomap(d, flow);
  EXPECT_EQ(parse_json(plain.report.to_json(false)).find("explore"), nullptr);
}

// --- option validation -----------------------------------------------------

TEST(Explore, InvalidOptionsThrowInputError) {
  Design d = make_benchmark("ex1");
  FlowOptions flow = base_options();
  {
    ExploreOptions eopts;
    eopts.levels = {-1};
    EXPECT_THROW(run_nanomap_explore(d, flow, eopts), InputError);
  }
  {
    ExploreOptions eopts;
    eopts.fault_candidate = -2;
    EXPECT_THROW(run_nanomap_explore(d, flow, eopts), InputError);
  }
  {
    ExploreOptions eopts;
    FabricVariant v;
    v.label = "bad";
    v.arch = flow.arch;
    v.arch.les_per_mb = 0;  // invalid fabric
    eopts.variants.push_back(v);
    EXPECT_THROW(run_nanomap_explore(d, flow, eopts), InputError);
  }
}

}  // namespace
}  // namespace nanomap
