// Deterministic, thread-safe tracing and metrics for the flow
// (DESIGN.md §5f/§5k, docs/OBSERVABILITY.md).
//
// Three primitives, all keyed by a static site name from the registry
// below:
//
//   NM_TRACE_SPAN("place");          RAII wall-clock span (stage tree)
//   NM_TRACE_COUNT("fds.pins", 1);   monotonic counter
//   NM_TRACE_VALUE("route.iterations_per_cycle", iters);  value histogram
//                                    (count / sum / min / max summary)
//
// Cost when disabled: one relaxed atomic load plus one thread-local read
// per site (the process-wide enabled flag and the request-collector
// binding — the same pattern as util/fault.h's disarmed fast path). No
// lock, no clock read, no string work.
//
// Determinism contract (enforced by tests/trace_test.cc):
//   * Observability never feeds back: no algorithmic decision reads the
//     trace, so enabling it never changes a result byte. When you add a
//     site, keep it write-only.
//   * Counter totals and value summaries are thread-count independent.
//     Counts and integral sums are exact under any interleaving, and
//     value summaries are interleaving-independent by construction: the
//     collector stores the raw observations and snapshot() sums them in
//     sorted order, so even non-integral doubles recorded from pool
//     workers (e.g. concurrent explorer candidates) fold to the same
//     bits regardless of arrival order.
//   * Spans live in sequential flow code (same rule as NM_FAULT_POINT),
//     so the span tree's shape and order are identical at any --threads;
//     only the recorded wall times vary run to run. Serializers that need
//     byte-determinism mask the times (RunReport::to_json(false)).
//     Code that must run *whole flow jobs* on pool workers without a
//     request-scoped collector (the parallel design-space explorer)
//     brackets each job in a TraceSpanMuteScope, which drops spans opened
//     on that thread — counters and values keep recording — so the
//     process-wide span tree stays deterministic.
//
// Where a record lands — the collector NM_TRACE_* sites write into:
//   1. the collector bound to the current thread by the innermost
//      TraceRequestScope, when one is installed (the flow-as-a-service
//      request context: each concurrent server job owns a private
//      TraceCollector, so its counters/spans never mix with a sibling
//      job's). ThreadPool propagates the submitting thread's binding to
//      the workers executing its tasks, so a job's inner parallel stages
//      record into the job's own collector too;
//   2. otherwise the process-wide Trace::instance() collector, when a
//      TraceScope window is open (the one-shot CLI and the explorer);
//   3. otherwise nowhere (the disabled fast path).
#pragma once

#include <atomic>
#include <string>
#include <vector>

namespace nanomap {

// One completed (or still open) span, in begin order. parent indexes into
// the same vector (-1 for a root), so the stage tree can be re-walked.
struct TraceSpan {
  std::string name;
  int parent = -1;
  int depth = 0;
  long calls = 1;       // always 1 in the raw record; >1 after aggregation
  double wall_ms = 0.0;
};

struct TraceCounterRow {
  std::string site;
  long value = 0;
};

struct TraceValueRow {
  std::string site;
  long count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Point-in-time copy of everything the collector holds. Counter and value
// rows are sorted by site name (never by first-hit order, which could
// depend on thread interleaving); spans are in begin order.
struct TraceSnapshot {
  std::vector<TraceSpan> spans;
  std::vector<TraceCounterRow> counters;
  std::vector<TraceValueRow> values;

  // Spans folded by path (root/child/...), begin order of first
  // occurrence, calls and wall_ms accumulated — the per-stage timing
  // table of the run report.
  std::vector<TraceSpan> aggregate_spans() const;

  // Human-readable aggregated stage tree (one line per path, with summed
  // wall time and call count) + counter/value tables (the CLI's --trace
  // output).
  std::string render() const;
};

// One collection window's worth of state: counters, value observations,
// and the span tree, behind one mutex. The process-wide Trace singleton
// owns one; the serving layer creates one per request so concurrent jobs
// collect in isolation (bind it with TraceRequestScope). Every method is
// safe to call from pool workers.
class TraceCollector {
 public:
  TraceCollector();
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // Clears all collected data and starts a new epoch, so span ids and
  // per-thread nesting stacks from the previous window can't write into
  // the new one. Epochs are process-unique (never reused across
  // collectors), so a collector allocated at a recycled address cannot
  // inherit a stale thread's span stack either.
  void reset();

  void count(const char* site, long delta);
  void value(const char* site, double v);

  // Span recording: begin returns an id for end (-1 when the span was
  // dropped, e.g. under TraceSpanMuteScope). Nesting is tracked with a
  // thread-local stack, so a span opened on a worker thread nests under
  // that thread's own stack — keep spans in sequential flow code (see
  // the contract above).
  int begin_span(const char* name);
  void end_span(int id);

  TraceSnapshot snapshot() const;

 private:
  struct Impl;
  Impl* impl_;
};

namespace internal {

// The request-scoped collector bound to this thread by the innermost
// TraceRequestScope (null when none). Read by the NM_TRACE_* fast path;
// written only by TraceRequestScope and the ThreadPool task wrappers.
// constinit tells other translation units it needs no dynamic
// initialization, so they access it directly instead of through the
// thread_local init wrapper (which GCC 12 + UBSan reports as a store to
// a null pointer on pool worker threads).
extern constinit thread_local TraceCollector* tls_request_collector;

}  // namespace internal

class Trace {
 public:
  // The process-wide collector used by the NM_TRACE_* macros when no
  // request-scoped collector is bound to the current thread.
  static Trace& instance();

  // True iff something is collecting on this thread: a request-scoped
  // collector is bound, or some TraceScope opened the process-wide
  // window. Relaxed: the flag only gates the slow path and scopes
  // bracket whole flow runs.
  static bool enabled() {
    return internal::tls_request_collector != nullptr ||
           enabled_flag().load(std::memory_order_relaxed);
  }

  // Clears all collected data and starts/stops process-wide collection.
  // Prefer TraceScope over calling these directly.
  void enable();
  void disable();

  // Slow paths behind the macros (safe to call from pool workers). These
  // always target the process-wide collector; the macros route through
  // active_trace_collector() instead, so request-scoped jobs stay
  // isolated.
  void count(const char* site, long delta) { collector_.count(site, delta); }
  void value(const char* site, double v) { collector_.value(site, v); }
  int begin_span(const char* name) { return collector_.begin_span(name); }
  void end_span(int id) { collector_.end_span(id); }

  TraceSnapshot snapshot() const { return collector_.snapshot(); }

  // The canonical site registries (docs/OBSERVABILITY.md mirrors these).
  // tests/trace_test.cc asserts every site a traced flow run hits is
  // listed here — add the entry with the NM_TRACE_* call.
  static const std::vector<std::string>& known_counter_sites();
  static const std::vector<std::string>& known_value_sites();
  static const std::vector<std::string>& known_span_names();

 private:
  friend TraceCollector* active_trace_collector();

  Trace() = default;
  ~Trace() = default;
  static std::atomic<bool>& enabled_flag();

  TraceCollector collector_;
};

// The collector an NM_TRACE_* site on this thread records into right
// now: the bound request collector first, the process-wide one when its
// window is open, else null (see "Where a record lands" above).
inline TraceCollector* active_trace_collector() {
  if (internal::tls_request_collector != nullptr)
    return internal::tls_request_collector;
  if (Trace::enabled_flag().load(std::memory_order_relaxed))
    return &Trace::instance().collector_;
  return nullptr;
}

// The request-scoped collector bound to this thread (null when none) —
// lets the flow tell a request-context run from a process-wide one
// without touching what the macros record.
inline TraceCollector* current_request_trace_collector() {
  return internal::tls_request_collector;
}

// Binds `collector` as this thread's request-scoped trace collector for
// the lifetime of the scope: NM_TRACE_* sites on this thread — and on
// pool workers executing tasks submitted while bound (ThreadPool
// propagates the binding) — record into it instead of the process-wide
// collector. The caller owns the collector and must keep it alive for
// the scope's lifetime (plus any pool tasks submitted under it).
// Nestable; restores the previous binding on exit.
class TraceRequestScope {
 public:
  explicit TraceRequestScope(TraceCollector* collector)
      : previous_(internal::tls_request_collector) {
    internal::tls_request_collector = collector;
  }
  ~TraceRequestScope() { internal::tls_request_collector = previous_; }
  TraceRequestScope(const TraceRequestScope&) = delete;
  TraceRequestScope& operator=(const TraceRequestScope&) = delete;

 private:
  TraceCollector* previous_;
};

// Thread-local span suppression for code that runs whole flow jobs on
// pool workers against the *process-wide* collector (the parallel
// explorer's candidate runs). While alive on a thread, NM_TRACE_SPAN on
// that thread records nothing; counters and values are unaffected.
// Request-scoped jobs (TraceRequestScope) don't need this — their spans
// land in their own collector. Nestable; restores the previous state on
// exit.
class TraceSpanMuteScope {
 public:
  TraceSpanMuteScope();
  ~TraceSpanMuteScope();
  TraceSpanMuteScope(const TraceSpanMuteScope&) = delete;
  TraceSpanMuteScope& operator=(const TraceSpanMuteScope&) = delete;

 private:
  bool previous_ = false;
};

// RAII collection window for one flow run against the process-wide
// collector. `wanted = false` is a no-op, so run_nanomap constructs one
// unconditionally from FlowOptions.
class TraceScope {
 public:
  explicit TraceScope(bool wanted) {
    if (wanted) {
      Trace::instance().enable();
      active_ = true;
    }
  }
  ~TraceScope() {
    if (active_) Trace::instance().disable();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool active_ = false;
};

namespace internal {

// RAII helper behind NM_TRACE_SPAN. The target collector is resolved once
// at construction; a span that straddles enable/disable (or a request
// rebinding) is simply dropped or closed against its original collector.
class ScopedTraceSpan {
 public:
  explicit ScopedTraceSpan(const char* name) {
    collector_ = active_trace_collector();
    if (collector_ != nullptr) id_ = collector_->begin_span(name);
  }
  ~ScopedTraceSpan() {
    if (collector_ != nullptr && id_ >= 0) collector_->end_span(id_);
  }
  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

 private:
  TraceCollector* collector_ = nullptr;
  int id_ = -1;
};

}  // namespace internal
}  // namespace nanomap

#define NM_TRACE_CONCAT_INNER(a, b) a##b
#define NM_TRACE_CONCAT(a, b) NM_TRACE_CONCAT_INNER(a, b)

// Times the enclosing scope as one stage/sub-stage span.
#define NM_TRACE_SPAN(name)                        \
  ::nanomap::internal::ScopedTraceSpan NM_TRACE_CONCAT( \
      nm_trace_span_, __LINE__)(name)

// Adds `delta` to the monotonic counter `site`.
#define NM_TRACE_COUNT(site, delta)                                \
  do {                                                             \
    if (::nanomap::TraceCollector* nm_trace_c =                    \
            ::nanomap::active_trace_collector())                   \
      nm_trace_c->count(site, delta);                              \
  } while (0)

// Records one observation of `v` into the value histogram `site`.
#define NM_TRACE_VALUE(site, v)                                    \
  do {                                                             \
    if (::nanomap::TraceCollector* nm_trace_c =                    \
            ::nanomap::active_trace_collector())                   \
      nm_trace_c->value(site, static_cast<double>(v));             \
  } while (0)
