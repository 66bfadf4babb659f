#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace nanomap {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

// One non-blank input line waiting to run.
struct PendingJob {
  std::string text;
  int line_no = 0;  // 1-based input line number
  long seq = 0;     // 0-based position among non-blank lines (emit order)
  Clock::time_point arrival;  // when the reader took the line off the input
};

enum class JobStatus { kDone, kRejected, kDeadline, kFailed };

const char* status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kDone: return "done";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kDeadline: return "deadline";
    case JobStatus::kFailed: return "failed";
  }
  return "failed";
}

struct JobOutcome {
  std::string response;  // one complete line, no trailing newline
  JobStatus status = JobStatus::kFailed;
  bool feasible = false;
  // Done jobs only: arrival -> start -> response built.
  double wait_ms = 0.0;
  double service_ms = 0.0;
};

constexpr int kServeVersion = 1;

// Shared prefix of every response line. Field order is part of the wire
// contract (docs/FORMATS.md): serve_version, id, line, status, ok,
// exit_code, error, detail, elapsed_ms[, report].
void begin_response(JsonWriter* w, const std::string& id, int line_no,
                    JobStatus status, bool ok, int exit_code,
                    const std::string& error, const std::string& detail) {
  w->begin_object();
  w->field("serve_version", kServeVersion);
  w->field("id", id);
  w->field("line", line_no);
  w->field("status", status_name(status));
  w->field("ok", ok);
  w->field("exit_code", exit_code);
  w->field("error", error);
  w->field("detail", detail);
}

class JobRunner {
 public:
  JobRunner(const ServeOptions& options, ServeCaches* caches,
            int threads_per_job)
      : options_(options), caches_(caches),
        threads_per_job_(threads_per_job) {}

  // Never throws: every failure mode becomes a typed response line.
  JobOutcome run(const PendingJob& pending) const {
    const Clock::time_point started = Clock::now();
    ServeJob job;
    try {
      job = parse_job_line(pending.text, pending.line_no);
    } catch (const InputError& e) {
      return error_outcome(pending, "job-" + std::to_string(pending.line_no),
                           JobStatus::kRejected, "parse", e.what());
    }
    const std::string id =
        job.id.empty() ? "job-" + std::to_string(pending.line_no) : job.id;

    // Admission-only deadline: a job past its deadline before it starts is
    // answered without running; once admitted it always runs to completion
    // (docs/SERVING.md "Deadlines"). The check reads the wall clock, so a
    // deadlined job has exactly two possible response byte forms.
    if (job.deadline_ms > 0.0 &&
        ms_between(pending.arrival, started) > job.deadline_ms)
      return error_outcome(pending, id, JobStatus::kDeadline, "deadline",
                           "deadline of " + json_number(job.deadline_ms) +
                               " ms expired before the job started");

    // Cache resolution happens outside run_nanomap, so parse work (and its
    // hit-or-miss fate) never lands in a traced job's report.
    std::shared_ptr<const Design> design;
    std::shared_ptr<const ArchParams> arch;
    try {
      design = caches_->design(job.circuit);
      arch = caches_->arch(job.arch_file, job.defects, options_.base_arch);
    } catch (const InputError& e) {
      return error_outcome(pending, id, JobStatus::kRejected, "input",
                           e.what());
    } catch (const std::exception& e) {
      return error_outcome(pending, id, JobStatus::kFailed, "internal",
                           e.what());
    }

    FlowOptions fopts;
    fopts.arch = *arch;
    fopts.objective = job.objective;
    fopts.area_constraint_le = job.area;
    fopts.delay_constraint_ns = job.delay;
    fopts.forced_folding_level = job.level;
    fopts.planes_share = !job.no_share;
    fopts.seed = job.seed ? *job.seed : options_.default_seed;
    fopts.threads = threads_per_job_;
    fopts.fault_plan = job.fault;
    fopts.collect_trace = job.trace;
    fopts.rr_provider = caches_;

    // Worker threads bind no collector, so a traced job records into
    // run_nanomap's private one and an untraced job records nothing.
    FlowResult r;
    try {
      r = run_nanomap(*design, fopts);
    } catch (const InputError& e) {
      return error_outcome(pending, id, JobStatus::kRejected, "input",
                           e.what());
    } catch (const std::exception& e) {
      return error_outcome(pending, id, JobStatus::kFailed, "internal",
                           e.what());
    }
    // The per-job thread count is a server scheduling detail (it changes
    // with --workers); zero it so response bytes stay worker-count
    // invariant. Everything else in the report is deterministic already.
    r.report.threads = 0;

    JobOutcome o;
    o.status = JobStatus::kDone;
    o.feasible = r.feasible;
    const Clock::time_point built = Clock::now();
    o.wait_ms = ms_between(pending.arrival, started);
    o.service_ms = ms_between(started, built);
    JsonWriter w(/*compact=*/true);
    begin_response(&w, id, pending.line_no, JobStatus::kDone, r.feasible,
                   exit_code_for(r), flow_error_kind_name(r.error_kind),
                   r.message);
    w.field("elapsed_ms", options_.include_timings
                              ? ms_between(pending.arrival, built)
                              : 0.0);
    w.key("report");
    w.raw(r.report.to_json(options_.include_timings, /*compact=*/true));
    w.end();
    o.response = w.str();
    return o;
  }

 private:
  JobOutcome error_outcome(const PendingJob& pending, const std::string& id,
                           JobStatus status, const std::string& error,
                           const std::string& detail) const {
    JobOutcome o;
    o.status = status;
    const int exit_code = status == JobStatus::kDeadline ? 1
                          : status == JobStatus::kFailed ? 3
                                                         : 2;
    JsonWriter w(/*compact=*/true);
    begin_response(&w, id, pending.line_no, status, /*ok=*/false, exit_code,
                   error, detail);
    w.field("elapsed_ms",
            options_.include_timings ? ms_since(pending.arrival) : 0.0);
    w.end();
    o.response = w.str();
    return o;
  }

  const ServeOptions& options_;
  ServeCaches* caches_;
  int threads_per_job_;
};

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  if (idx > 0) --idx;  // nearest-rank, 1-based -> 0-based
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

// p50 and p99 of `values` (any order).
std::pair<double, double> p50_p99(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return {percentile(values, 0.50), percentile(values, 0.99)};
}

void tally(const JobOutcome& o, ServeSummary* s) {
  ++s->jobs;
  switch (o.status) {
    case JobStatus::kDone:
      ++s->done;
      if (o.feasible) ++s->feasible;
      s->latencies_ms.push_back(o.wait_ms + o.service_ms);
      s->wait_ms.push_back(o.wait_ms);
      s->service_ms.push_back(o.service_ms);
      break;
    case JobStatus::kRejected: ++s->rejected; break;
    case JobStatus::kDeadline: ++s->deadline_expired; break;
    case JobStatus::kFailed: ++s->failed; break;
  }
}

}  // namespace

ServeSummary serve_jobs(std::istream& in, std::ostream& out,
                        const ServeOptions& options, ServeCaches* caches) {
  ServeCaches local_caches;
  if (caches == nullptr) caches = &local_caches;

  const int total_threads =
      options.threads > 0 ? options.threads : ThreadPool::hardware_threads();
  const PoolSlice slice =
      slice_pool(total_threads, options.workers > 0 ? options.workers : 1);
  JobRunner runner(options, caches, slice.threads_per_job);

  ServeSummary summary;
  const auto start = Clock::now();

  // Streaming admission. The calling thread reads lines, stamps each one's
  // arrival as it comes off the input and queues it at once; slice.jobs
  // worker threads take queued jobs in input order. The reader keeps
  // reading ahead while jobs run (at one worker too), so deadlines count
  // from read time. Backpressure: at most `window` jobs are read but not
  // yet emitted; past that the reader stops reading until the oldest
  // in-flight response is out.
  const long window = std::max(64, 8 * slice.jobs);
  std::mutex queue_mu;
  std::condition_variable job_ready;  // workers: a job queued, or closed
  std::condition_variable slot_free;  // reader: in_flight fell, or closed
  std::deque<PendingJob> queue;
  long in_flight = 0;
  bool closed = false;  // input ended or the stream failed
  std::exception_ptr failure;  // first stream-level failure, rethrown

  auto fail = [&](std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      if (!failure) failure = e;
      closed = true;
    }
    job_ready.notify_all();
    slot_free.notify_all();
  };

  // Ordered streaming commit: workers finish in any order, but a response
  // is written only once every earlier response is out, so the output
  // order is the input order by construction. Each line is flushed as it
  // is written, so an interactive client gets its answer without closing
  // its end of the stream.
  std::mutex emit_mu;
  std::map<long, JobOutcome> finished;
  long next_emit = 0;
  auto commit = [&](long seq, JobOutcome o) {
    long emitted = 0;
    {
      std::lock_guard<std::mutex> lock(emit_mu);
      finished.emplace(seq, std::move(o));
      for (auto it = finished.begin();
           it != finished.end() && it->first == next_emit;
           it = finished.erase(it), ++next_emit, ++emitted) {
        out << it->second.response << '\n';
        out.flush();
        tally(it->second, &summary);
      }
    }
    if (emitted == 0) return;
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      in_flight -= emitted;
    }
    slot_free.notify_one();
  };

  auto work = [&] {
    for (;;) {
      PendingJob job;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        job_ready.wait(lock, [&] { return closed || !queue.empty(); });
        if (failure || queue.empty()) return;
        job = std::move(queue.front());
        queue.pop_front();
      }
      try {
        commit(job.seq, runner.run(job));
      } catch (...) {
        fail(std::current_exception());
        return;
      }
    }
  };
  std::vector<std::thread> workers;
  try {
    for (int i = 0; i < slice.jobs; ++i) workers.emplace_back(work);
    std::string line;
    int line_no = 0;
    long seq = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        slot_free.wait(lock, [&] { return closed || in_flight < window; });
        if (closed) break;
      }
      if (!std::getline(in, line)) break;
      const Clock::time_point arrival = Clock::now();
      ++line_no;
      if (line.empty()) continue;  // blank separator lines, no response
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        queue.push_back({std::move(line), line_no, seq++, arrival});
        ++in_flight;
      }
      job_ready.notify_one();
    }
  } catch (...) {
    fail(std::current_exception());
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    closed = true;
  }
  job_ready.notify_all();
  for (std::thread& t : workers) t.join();
  if (failure) std::rethrow_exception(failure);

  summary.wall_seconds = ms_since(start) / 1000.0;
  if (summary.wall_seconds > 0.0)
    summary.jobs_per_sec =
        static_cast<double>(summary.jobs) / summary.wall_seconds;
  std::tie(summary.p50_ms, summary.p99_ms) = p50_p99(summary.latencies_ms);
  std::tie(summary.wait_p50_ms, summary.wait_p99_ms) =
      p50_p99(summary.wait_ms);
  std::tie(summary.service_p50_ms, summary.service_p99_ms) =
      p50_p99(summary.service_ms);
  summary.cache = caches->stats();
  return summary;
}

}  // namespace nanomap
