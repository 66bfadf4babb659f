// Serving throughput: a synthetic JSON-lines job stream through
// serve_jobs() (src/serve/server.h) at increasing worker counts. Reports
// jobs/sec, completion-latency percentiles (p50/p99) split into queue
// wait and service time, and shared-cache hit rates per worker count,
// and *asserts* byte-identity of the full response stream across every
// worker count — the serving determinism contract (docs/SERVING.md) —
// exiting nonzero on any divergence.
//
// The stream is built through the real serializer (write_job_line) and
// mixes plain jobs, objective variants, a traced job and a malformed
// line, so the measured path is the one production jobs take.
//
// Wall-clock note: worker-count speedup scales with real cores; on a
// single-core container every worker count lands at ~parity. The numbers
// emitted are honest measurements of this machine.
//
// The report carries a host header: hardware threads, build type and the
// `git describe` passed in.
//
//   ./bench/serve_throughput [--smoke] [--git-describe D] [out.json]
//                            (default BENCH_serve.json)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/json.h"
#include "util/thread_pool.h"

using namespace nanomap;

namespace {

// Total thread budget every worker count splits via slice_pool — same
// resources, different schedule, so the rows are comparable.
constexpr int kThreads = 4;

std::string build_stream(bool smoke) {
  // Distinct (circuit, seed, objective) jobs with heavy key reuse, the
  // shape the caches are built for. ex1 keeps a single job in the tens of
  // milliseconds, so even the full stream stays CI-friendly.
  const std::vector<std::string> circuits =
      smoke ? std::vector<std::string>{"bench:ex1"}
            : std::vector<std::string>{"bench:ex1", "bench:FIR"};
  const int seeds = smoke ? 6 : 12;
  std::string stream;
  int n = 0;
  for (const std::string& circuit : circuits) {
    for (int s = 0; s < seeds; ++s) {
      ServeJob job;
      job.id = "job-" + std::to_string(n++);
      job.circuit = circuit;
      job.level = 2;
      job.seed = static_cast<std::uint64_t>(s);
      if (s % 4 == 1) job.objective = Objective::kMinDelay;
      if (s % 4 == 2) job.objective = Objective::kMinArea;
      if (s == 3) job.trace = true;
      stream += write_job_line(job) + "\n";
    }
  }
  // One malformed line: rejection is part of the serving hot path too.
  stream += "{\"circuit\":\"bench:ex1\",\"bogus\":true}\n";
  return stream;
}

struct Row {
  int workers = 0;
  ServeSummary summary;
  std::string output;
};

Row run_row(const std::string& stream, int workers) {
  ServeOptions options;
  options.workers = workers;
  options.threads = kThreads;
  std::istringstream in(stream);
  std::ostringstream out;
  Row row;
  row.workers = workers;
  row.summary = serve_jobs(in, out, options);
  row.output = out.str();
  return row;
}

double hit_rate(long hits, long misses) {
  const long total = hits + misses;
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string git_describe = "unknown";
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else if (arg == "--git-describe" && i + 1 < argc)
      git_describe = argv[++i];
    else
      out_path = arg;
  }

  const std::string stream = build_stream(smoke);
  std::vector<Row> rows;
  for (int workers : {1, 2, 4}) rows.push_back(run_row(stream, workers));

  // The determinism gate: every worker count must produce the identical
  // response byte stream (and a rerun must reproduce it).
  bool identical = true;
  for (const Row& row : rows)
    identical = identical && row.output == rows.front().output;
  identical = identical && run_row(stream, 4).output == rows.front().output;

  auto round2 = [](double v) { return std::round(v * 100.0) / 100.0; };
  JsonWriter w;
  w.begin_object();
  w.field("unit", "jobs per second over one JSON-lines stream "
                  "(higher is better)");
  w.field("stream", "ex1/FIR level-2 jobs across seeds and objectives, "
                    "one traced job, one malformed line");
  w.field("threads", kThreads);
  w.field("hardware_threads", ThreadPool::hardware_threads());
  w.field("build_type", NANOMAP_BUILD_TYPE);
  w.field("git_describe", git_describe);
  w.field("smoke", smoke);
  w.key("rows");
  w.begin_array();
  for (const Row& row : rows) {
    const ServeSummary& s = row.summary;
    w.begin_object();
    w.field("workers", row.workers);
    w.field("jobs", s.jobs);
    w.field("done", s.done);
    w.field("feasible", s.feasible);
    w.field("rejected", s.rejected);
    w.field("wall_s", round2(s.wall_seconds));
    w.field("jobs_per_sec", round2(s.jobs_per_sec));
    w.field("p50_ms", round2(s.p50_ms));
    w.field("p99_ms", round2(s.p99_ms));
    w.field("wait_p50_ms", round2(s.wait_p50_ms));
    w.field("wait_p99_ms", round2(s.wait_p99_ms));
    w.field("service_p50_ms", round2(s.service_p50_ms));
    w.field("service_p99_ms", round2(s.service_p99_ms));
    w.field("design_cache_hit_rate",
            round2(hit_rate(s.cache.design_hits, s.cache.design_misses)));
    w.field("arch_cache_hit_rate",
            round2(hit_rate(s.cache.arch_hits, s.cache.arch_misses)));
    w.field("rr_cache_hit_rate",
            round2(hit_rate(s.cache.rr_hits, s.cache.rr_misses)));
    w.end();
    std::printf(
        "workers %d  %3ld jobs (%3ld done, %ld rejected)  %7.2f jobs/s  "
        "p50 %7.1f ms  p99 %7.1f ms  wait p50/p99 %7.1f/%7.1f ms  "
        "service p50/p99 %6.1f/%6.1f ms  cache d/a/rr %.2f/%.2f/%.2f\n",
        row.workers, s.jobs, s.done, s.rejected, s.jobs_per_sec, s.p50_ms,
        s.p99_ms, s.wait_p50_ms, s.wait_p99_ms, s.service_p50_ms,
        s.service_p99_ms,
        hit_rate(s.cache.design_hits, s.cache.design_misses),
        hit_rate(s.cache.arch_hits, s.cache.arch_misses),
        hit_rate(s.cache.rr_hits, s.cache.rr_misses));
  }
  w.end();
  w.field("byte_identical_across_workers", identical);
  w.end();
  std::ofstream out(out_path);
  out << w.str();
  std::printf("wrote %s; responses %s across worker counts\n",
              out_path.c_str(),
              identical ? "byte-identical" : "DIVERGED");
  return identical ? 0 : 1;
}
