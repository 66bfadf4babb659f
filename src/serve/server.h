// Concurrent batch server core: JSON-lines jobs in, JSON-lines responses
// out (docs/SERVING.md). The nanomap-server binary is a thin wrapper over
// serve_jobs(); tests and the throughput bench call it directly on string
// streams.
//
// Contract highlights (the full version lives in docs/SERVING.md):
//   * Streaming admission: the calling thread reads lines and stamps each
//     one's arrival the moment it comes off the input; the job is queued
//     at once and the next free worker starts it. Reading continues while
//     jobs run (at one worker too), up to a bounded in-flight window of
//     max(64, 8 * workers) jobs read but not yet emitted; past that the
//     reader stops until the oldest response is out (backpressure).
//   * One response line per non-blank input line, in input order —
//     each response is written and flushed as soon as every earlier
//     line's response is out, regardless of which worker finishes first.
//     A client that sends one line gets its answer without closing the
//     stream.
//   * Byte-determinism: for a fixed input stream and ServeOptions, every
//     response line is byte-identical at any worker/thread count and any
//     job interleaving. Everything interleaving-dependent (wall-clock,
//     cache hit/miss, worker assignment) is kept out of response bytes:
//     elapsed_ms prints 0 unless include_timings, report timings are
//     masked the same way, report.threads is normalized to 0, and cache
//     counters only surface in the ServeSummary. Jobs with a deadline are
//     the one documented exception — each has exactly two well-defined
//     byte forms (ran, or expired at admission). The deadline counts
//     from the line's read-time arrival.
//   * A malformed or failing job produces a typed error response and the
//     stream continues; nothing a job does can kill its siblings.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "serve/cache.h"
#include "serve/job.h"

namespace nanomap {

struct ServeOptions {
  // Concurrent flow jobs. The total thread budget is split as
  // slice_pool(threads, workers): workers top-level slots, each job's
  // inner flow stages on threads/workers threads. 0 workers = 1.
  int workers = 1;
  // Total thread budget across all workers (0 = hardware concurrency).
  int threads = 0;
  // Seed for jobs that don't carry their own.
  std::uint64_t default_seed = 42;
  // Base fabric; per-job arch/defects specs apply on top of it.
  ArchParams base_arch = ArchParams::paper_instance();
  // Emit real elapsed_ms / report timings instead of zeros. Off by
  // default: masked timings are what makes response bytes deterministic.
  bool include_timings = false;
};

// Aggregate outcome of one serve_jobs call — the source of the server's
// stderr summary and of bench/serve_throughput's BENCH_serve.json. Never
// part of any response line (several fields are timing- or
// interleaving-dependent by nature).
struct ServeSummary {
  long jobs = 0;       // non-blank input lines
  long done = 0;       // flow ran to a clean result (feasible or not)
  long feasible = 0;
  long rejected = 0;   // parse/input errors (typed, exit_code 2)
  long deadline_expired = 0;
  long failed = 0;     // internal errors (exit_code 3)
  double wall_seconds = 0.0;
  double jobs_per_sec = 0.0;
  // Per `done` job: latency = queue wait (read-time arrival -> a worker
  // starts it) + service (start -> response built). Vectors hold one
  // entry per done job in input order.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double wait_p50_ms = 0.0;
  double wait_p99_ms = 0.0;
  double service_p50_ms = 0.0;
  double service_p99_ms = 0.0;
  std::vector<double> latencies_ms;
  std::vector<double> wait_ms;
  std::vector<double> service_ms;
  ServeCaches::Stats cache;
};

// Reads JSON-lines jobs from `in` until EOF, starting each as soon as it
// is read on one of slice_pool(threads, workers).jobs worker threads, and
// writes one response line per job to `out` in input order. `caches` may
// be shared across calls (e.g. the bench's warm runs); null uses a
// private cache for this call. Blank input lines are skipped. Never
// throws on job content; only stream-level failures (bad streams)
// surface to the caller, after every worker has stopped.
ServeSummary serve_jobs(std::istream& in, std::ostream& out,
                        const ServeOptions& options,
                        ServeCaches* caches = nullptr);

}  // namespace nanomap
