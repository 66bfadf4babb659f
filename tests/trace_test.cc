// Contract tests for the tracing/metrics subsystem (util/trace.h):
//
//   * counters and value histograms are exact under concurrent ThreadPool
//     recording (the totals a traced flow reports are thread-count
//     independent),
//   * the disabled path is inert and the *enabled* path never perturbs
//     results — a traced flow run stays byte-identical to the golden
//     pre-observability fingerprints at --threads 1 and 4,
//   * spans form the documented stage tree and every site a traced flow
//     run hits is listed in the known-site registries,
//   * RunReport::to_json(false) is byte-deterministic across runs and
//     thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>

#include "bitstream/bitmap.h"
#include "circuits/random_dag.h"
#include "flow/nanomap_flow.h"
#include "map/bench_format.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace nanomap {
namespace {

// Same byte fingerprint as tests/determinism_test.cc, so the golden
// hashes pinned there gate this file too.
std::string fingerprint(const FlowResult& r) {
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
  add_int(r.placement.placement.grid.width);
  add_int(r.placement.placement.grid.height);
  for (int site : r.placement.placement.site_of_smb) add_int(site);
  add_double(r.placement.cost);
  add_double(r.placement.wirelength);
  add_int(static_cast<long long>(r.routing.nets.size()));
  for (const NetRoute& nr : r.routing.nets) {
    add_int(nr.net_index);
    for (int s : nr.sink_smbs) add_int(s);
    for (double d : nr.sink_delay_ps) add_double(d);
    for (int n : nr.wire_nodes) add_int(n);
  }
  add_int(r.routing.usage.direct);
  add_int(r.routing.usage.len1);
  add_int(r.routing.usage.len4);
  add_int(r.routing.usage.global);
  std::vector<std::uint8_t> bytes = serialize_bitmap(r.bitmap);
  fp.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return fp;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Design s27_design() {
  return parse_bench_file(NMAP_TEST_DESIGN_DIR "/s27.bench");
}

Design random_design() {
  RandomDagSpec spec;
  spec.num_planes = 2;
  spec.luts_per_plane = 45;
  spec.depth = 6;
  spec.regs_per_plane = 6;
  spec.seed = 1234;
  return make_random_design(spec);
}

FlowResult run_with(const Design& d, int threads, bool traced) {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.seed = 42;
  opts.threads = threads;
  opts.placement.restarts = threads > 1 ? 4 : 1;
  opts.collect_trace = traced;
  FlowResult r = run_nanomap(d, opts);
  EXPECT_TRUE(r.feasible) << r.message;
  return r;
}

TEST(Trace, DisabledByDefaultAndMacrosInert) {
  ASSERT_FALSE(Trace::enabled());
  NM_TRACE_COUNT("place.calls", 1);
  NM_TRACE_VALUE("place.cost", 3.5);
  { NM_TRACE_SPAN("flow"); }
  TraceCollector collector;
  TraceScope scope(&collector);
  ASSERT_TRUE(Trace::enabled());
  TraceSnapshot snap = collector.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.values.empty());
  EXPECT_TRUE(snap.spans.empty());
}

TEST(Trace, ScopeDisablesOnExit) {
  TraceCollector outer, inner;
  {
    TraceScope scope(&outer);
    EXPECT_EQ(active_trace_collector(), &outer);
    {
      TraceScope nested(&inner);
      EXPECT_EQ(active_trace_collector(), &inner);
    }
    EXPECT_EQ(active_trace_collector(), &outer);  // binding restored
    {
      TraceScope unbind(nullptr);
      EXPECT_FALSE(Trace::enabled());
    }
    EXPECT_TRUE(Trace::enabled());
  }
  EXPECT_FALSE(Trace::enabled());
}

TEST(Trace, CountersExactUnderConcurrentRecording) {
  // 8 workers x 1000 increments per site: the mutex-protected counters
  // must land on the exact total under any interleaving, and integral
  // value sums must be exact too (that is the determinism contract for
  // sites recorded from pool workers, e.g. place.accepted_per_temp).
  // The pool propagates the binding to its workers.
  TraceCollector collector;
  TraceScope scope(&collector);
  ThreadPool pool(8);
  const int kTasks = 8000;
  pool_for_each(&pool, kTasks, [](int i) {
    NM_TRACE_COUNT("place.moves", 3);
    NM_TRACE_VALUE("place.accepted_per_temp", i % 7);
  });
  TraceSnapshot snap = collector.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].site, "place.moves");
  EXPECT_EQ(snap.counters[0].value, 3L * kTasks);
  ASSERT_EQ(snap.values.size(), 1u);
  const TraceValueRow& v = snap.values[0];
  EXPECT_EQ(v.site, "place.accepted_per_temp");
  EXPECT_EQ(v.count, kTasks);
  double want_sum = 0.0;
  for (int i = 0; i < kTasks; ++i) want_sum += i % 7;
  EXPECT_EQ(v.sum, want_sum);  // integral doubles: exact, order-free
  EXPECT_EQ(v.min, 0.0);
  EXPECT_EQ(v.max, 6.0);
}

TEST(Trace, SpanTreeNestsAndAggregates) {
  TraceCollector collector;
  TraceScope scope(&collector);
  {
    NM_TRACE_SPAN("flow");
    for (int i = 0; i < 3; ++i) {
      NM_TRACE_SPAN("place");
    }
  }
  TraceSnapshot snap = collector.snapshot();
  ASSERT_EQ(snap.spans.size(), 4u);
  EXPECT_EQ(snap.spans[0].name, "flow");
  EXPECT_EQ(snap.spans[0].parent, -1);
  EXPECT_EQ(snap.spans[0].depth, 0);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(snap.spans[static_cast<std::size_t>(i)].name, "place");
    EXPECT_EQ(snap.spans[static_cast<std::size_t>(i)].parent, 0);
    EXPECT_EQ(snap.spans[static_cast<std::size_t>(i)].depth, 1);
  }
  std::vector<TraceSpan> agg = snap.aggregate_spans();
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_EQ(agg[0].name, "flow");
  EXPECT_EQ(agg[0].calls, 1);
  EXPECT_EQ(agg[1].name, "flow/place");
  EXPECT_EQ(agg[1].calls, 3);
  const std::string text = snap.render();
  EXPECT_NE(text.find("trace: stage tree"), std::string::npos);
  EXPECT_NE(text.find("\n    place  "), std::string::npos) << text;
  EXPECT_NE(text.find(" ms  x3\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("place"), text.rfind("place")) << text;
}

TEST(Trace, CollectorsAreIsolated) {
  TraceCollector first, second;
  {
    TraceScope scope(&first);
    NM_TRACE_COUNT("route.calls", 7);
    { NM_TRACE_SPAN("route"); }
  }
  {
    TraceScope scope(&second);
    NM_TRACE_VALUE("place.cost", 2.0);
  }
  const TraceSnapshot a = first.snapshot();
  const TraceSnapshot b = second.snapshot();
  ASSERT_EQ(a.counters.size(), 1u);
  EXPECT_EQ(a.counters[0].value, 7);
  EXPECT_TRUE(a.values.empty());
  EXPECT_EQ(a.spans.size(), 1u);
  EXPECT_TRUE(b.counters.empty());
  EXPECT_TRUE(b.spans.empty());
  ASSERT_EQ(b.values.size(), 1u);
  EXPECT_EQ(b.values[0].count, 1);
}

// absorb() folds counters and raw value observations, never spans, and the
// folded summary is independent of the absorb order.
TEST(Trace, AbsorbFoldsCountersAndValuesNotSpans) {
  TraceCollector parts[2];
  const double obs[2][2] = {{0.1, 0.7}, {0.2, 1e16}};
  for (int i = 0; i < 2; ++i) {
    TraceScope scope(&parts[i]);
    NM_TRACE_SPAN("place");
    NM_TRACE_COUNT("place.calls", i + 1);
    for (double v : obs[i]) NM_TRACE_VALUE("place.cost", v);
  }
  TraceCollector forward, backward;
  forward.absorb(parts[0]);
  forward.absorb(parts[1]);
  backward.absorb(parts[1]);
  backward.absorb(parts[0]);
  const TraceSnapshot f = forward.snapshot();
  const TraceSnapshot b = backward.snapshot();
  EXPECT_TRUE(f.spans.empty());
  ASSERT_EQ(f.counters.size(), 1u);
  EXPECT_EQ(f.counters[0].value, 3);
  ASSERT_EQ(f.values.size(), 1u);
  EXPECT_EQ(f.values[0].count, 4);
  EXPECT_EQ(f.render(), b.render());
  EXPECT_EQ(f.values[0].sum, b.values[0].sum);  // bit-identical
}

// The tentpole guarantee: tracing never changes a result byte. Both the
// disabled path (plain runs, pinned by determinism_test.cc) and the
// *enabled* path must match the golden fingerprints of
// determinism_test.cc, with the parallel machinery engaged and at both
// thread counts.
TEST(Trace, TracedFlowMatchesGoldenFingerprints) {
  struct Case {
    const char* name;
    Design design;
    std::uint64_t want;
  };
  Case cases[] = {
      {"s27", s27_design(), 0x1ecc1e36737c91f0ull},
      {"random-dag", random_design(), 0x7ab206ec7fe5d996ull},
  };
  for (const Case& c : cases) {
    for (int threads : {1, 4}) {
      FlowOptions opts;
      opts.arch = ArchParams::paper_instance();
      opts.seed = 42;
      opts.threads = threads;
      opts.placement.restarts = 4;
          opts.collect_trace = true;
      FlowResult r = run_nanomap(c.design, opts);
      ASSERT_TRUE(r.feasible) << r.message;
      EXPECT_EQ(fnv1a(fingerprint(r)), c.want)
          << c.name << ": tracing perturbed the result at threads="
          << threads;
      EXPECT_FALSE(r.report.stages.empty());
      EXPECT_FALSE(r.report.counters.empty());
    }
  }
}

TEST(Trace, EverySiteATracedRunHitsIsRegistered) {
  FlowResult r = run_with(s27_design(), 4, true);
  const auto& counters = Trace::known_counter_sites();
  const auto& values = Trace::known_value_sites();
  const auto& spans = Trace::known_span_names();
  std::set<std::string> counter_reg(counters.begin(), counters.end());
  std::set<std::string> value_reg(values.begin(), values.end());
  std::set<std::string> span_reg(spans.begin(), spans.end());
  for (const TraceCounterRow& c : r.report.counters)
    EXPECT_TRUE(counter_reg.count(c.site))
        << "unregistered counter site " << c.site
        << " (add it to Trace::known_counter_sites and "
           "docs/OBSERVABILITY.md)";
  for (const TraceValueRow& v : r.report.values)
    EXPECT_TRUE(value_reg.count(v.site))
        << "unregistered value site " << v.site;
  for (const TraceSpan& s : r.report.stages) {
    std::string leaf = s.name;
    std::size_t slash = leaf.rfind('/');
    if (slash != std::string::npos) leaf = leaf.substr(slash + 1);
    EXPECT_TRUE(span_reg.count(leaf))
        << "unregistered span name " << leaf << " (path " << s.name << ")";
  }
}

TEST(Trace, CounterTotalsThreadCountInvariant) {
  // The same (input, seed, restarts) must produce the same counter
  // totals and value summaries at any thread count — wall times are the
  // only fields allowed to differ.
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.seed = 42;
  opts.placement.restarts = 4;
  opts.collect_trace = true;
  opts.threads = 1;
  FlowResult a = run_nanomap(s27_design(), opts);
  opts.threads = 4;
  FlowResult b = run_nanomap(s27_design(), opts);
  ASSERT_TRUE(a.feasible && b.feasible);
  // run.threads is the one field that legitimately differs (it records
  // the requested thread count); everything else must match byte-wise.
  RunReport normalized = b.report;
  normalized.threads = a.report.threads;
  EXPECT_EQ(a.report.to_json(/*include_timings=*/false),
            normalized.to_json(/*include_timings=*/false));
}

TEST(Trace, ReportJsonRepeatable) {
  FlowResult a = run_with(random_design(), 4, true);
  FlowResult b = run_with(random_design(), 4, true);
  EXPECT_EQ(a.report.to_json(false), b.report.to_json(false));
}

TEST(Trace, UntracedRunsCarryAnEmptyButValidReport) {
  FlowResult r = run_with(s27_design(), 1, false);
  EXPECT_FALSE(r.report.trace_enabled);
  EXPECT_TRUE(r.report.stages.empty());
  EXPECT_TRUE(r.report.counters.empty());
  EXPECT_TRUE(r.report.values.empty());
  EXPECT_EQ(r.report.version, RunReport::kSchemaVersion);
  EXPECT_TRUE(r.report.feasible);
  EXPECT_GT(r.report.num_les, 0);
  EXPECT_FALSE(r.report.to_json().empty());
}

}  // namespace
}  // namespace nanomap
