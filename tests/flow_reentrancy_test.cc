// run_nanomap is reentrant: its trace binding and fault plan are the
// calling thread's own, so two flows running at once on different threads
// produce exactly the reports, trails and bitmaps they produce alone.
#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>

#include "bitstream/bitmap.h"
#include "circuits/benchmarks.h"
#include "flow/nanomap_flow.h"

namespace nanomap {
namespace {

FlowOptions options(bool traced, const std::string& fault_plan = "") {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.threads = 1;
  opts.collect_trace = traced;
  opts.fault_plan = fault_plan;
  return opts;
}

// Runs the two flows at once, released together from a latch so their
// stages overlap.
void run_concurrently(const Design& da, const FlowOptions& oa, FlowResult* ra,
                      const Design& db, const FlowOptions& ob,
                      FlowResult* rb) {
  std::latch start(2);
  std::thread ta([&] {
    start.arrive_and_wait();
    *ra = run_nanomap(da, oa);
  });
  std::thread tb([&] {
    start.arrive_and_wait();
    *rb = run_nanomap(db, ob);
  });
  ta.join();
  tb.join();
}

// The deterministic part of a report: counters, values and the span tree's
// shape, with wall times masked.
std::string report_bytes(const FlowResult& r) {
  return r.report.to_json(/*include_timings=*/false);
}

TEST(FlowReentrancy, ConcurrentTracedRunsKeepTheirOwnReports) {
  const Design ex1 = make_benchmark("ex1");
  const Design biquad = make_benchmark("Biquad");
  const FlowResult solo_ex1 = run_nanomap(ex1, options(true));
  const FlowResult solo_biquad = run_nanomap(biquad, options(true));
  ASSERT_TRUE(solo_ex1.feasible) << solo_ex1.message;
  ASSERT_TRUE(solo_biquad.feasible) << solo_biquad.message;
  ASSERT_FALSE(solo_ex1.report.counters.empty());

  for (int rep = 0; rep < 2; ++rep) {
    FlowResult a, b;
    run_concurrently(ex1, options(true), &a, biquad, options(true), &b);
    EXPECT_EQ(report_bytes(a), report_bytes(solo_ex1)) << "rep " << rep;
    EXPECT_EQ(report_bytes(b), report_bytes(solo_biquad)) << "rep " << rep;
  }
}

// ex1's level search schedules one plane once, so its own run never
// reaches hit 2 of fds.schedule. A plan shared between the two runs would
// count Biquad's schedule calls as well, and fire in Biquad.
TEST(FlowReentrancy, FaultPlanFiresOnlyInItsOwnRun) {
  const Design ex1 = make_benchmark("ex1");
  const Design biquad = make_benchmark("Biquad");
  const FlowOptions armed = options(false, "fds.schedule:2:check");
  const FlowResult solo_ex1 = run_nanomap(ex1, armed);
  const FlowResult solo_biquad = run_nanomap(biquad, options(false));
  ASSERT_TRUE(solo_ex1.feasible) << solo_ex1.message;
  ASSERT_TRUE(solo_biquad.diagnostics.empty())
      << solo_biquad.diagnostics.to_string();

  for (int rep = 0; rep < 2; ++rep) {
    FlowResult a, b;
    run_concurrently(ex1, armed, &a, biquad, options(false), &b);
    EXPECT_TRUE(b.diagnostics.empty())
        << "rep " << rep << ":\n" << b.diagnostics.to_string();
    EXPECT_EQ(serialize_bitmap(b.bitmap), serialize_bitmap(solo_biquad.bitmap))
        << "rep " << rep;
    EXPECT_EQ(a.diagnostics.to_string(), solo_ex1.diagnostics.to_string())
        << "rep " << rep;
  }
}

}  // namespace
}  // namespace nanomap
