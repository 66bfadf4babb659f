// nanomap-server — concurrent batch front end for the NanoMap flow
// (docs/SERVING.md).
//
//   nanomap-server [options] < jobs.jsonl > responses.jsonl
//
// Reads one JSON job object per input line from stdin, runs the jobs on a
// pool of concurrent flow workers sharing parsed-circuit / arch / RR-graph
// caches, and writes one JSON response line per job to stdout *in input
// order*. A run summary (throughput, latency percentiles, cache hit
// rates) goes to stderr.
//
// Options:
//   --workers N     concurrent flow jobs (default 1)
//   --threads N     total thread budget split across workers via
//                   slice_pool (0 = hardware concurrency). Never changes
//                   response bytes, only wall-clock time.
//   --seed S        default seed for jobs without their own (default 42)
//   --arch FILE     base architecture file; per-job "arch" applies on top
//   --defects SPEC  base defect spec (file or "seed=S,le=R,..."); a job's
//                   own "defects" key replaces it
//   --timings       emit real elapsed_ms / report timings instead of the
//                   deterministic zeros
//   --quiet         suppress the stderr summary
//
// Exit codes: 0 once the input stream is fully processed (per-job
// failures are typed response lines, not process failures), 2 for a bad
// command line or base configuration. Per-job exit codes ride inside the
// responses and follow the CLI taxonomy (README "Exit codes").
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "arch/arch_file.h"
#include "arch/defect.h"
#include "serve/server.h"

using namespace nanomap;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--threads N] [--seed S] "
               "[--arch FILE] [--defects FILE|seed=S,le=R,smb=R,wire=R] "
               "[--timings] [--quiet] < jobs.jsonl\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opts;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workers") {
      opts.workers = std::atoi(next().c_str());
      if (opts.workers < 1) {
        std::fprintf(stderr, "--workers must be >= 1\n");
        return 2;
      }
    } else if (arg == "--threads") {
      opts.threads = std::atoi(next().c_str());
    } else if (arg == "--seed") {
      opts.default_seed =
          static_cast<std::uint64_t>(std::atoll(next().c_str()));
    } else if (arg == "--arch") {
      try {
        opts.base_arch = parse_arch_file(next(), opts.base_arch);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--defects") {
      std::string v = next();
      try {
        opts.base_arch.defects = v.find('=') != std::string::npos
                                     ? parse_defect_rates(v)
                                     : parse_defect_map_file(v);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--timings") {
      opts.include_timings = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  const ServeSummary summary = serve_jobs(std::cin, std::cout, opts);

  if (!quiet) {
    std::fprintf(stderr,
                 "served %ld job(s) in %.2f s (%.2f jobs/s): %ld done "
                 "(%ld feasible), %ld rejected, %ld deadline-expired, "
                 "%ld failed\n",
                 summary.jobs, summary.wall_seconds, summary.jobs_per_sec,
                 summary.done, summary.feasible, summary.rejected,
                 summary.deadline_expired, summary.failed);
    std::fprintf(stderr,
                 "latency p50 %.1f ms, p99 %.1f ms (queue wait p50 %.1f ms, "
                 "p99 %.1f ms; service p50 %.1f ms, p99 %.1f ms)\n",
                 summary.p50_ms, summary.p99_ms, summary.wait_p50_ms,
                 summary.wait_p99_ms, summary.service_p50_ms,
                 summary.service_p99_ms);
    std::fprintf(stderr,
                 "cache hits/misses: design %ld/%ld, arch %ld/%ld, "
                 "rr %ld/%ld\n",
                 summary.cache.design_hits,
                 summary.cache.design_misses, summary.cache.arch_hits,
                 summary.cache.arch_misses, summary.cache.rr_hits,
                 summary.cache.rr_misses);
  }
  return 0;
}
