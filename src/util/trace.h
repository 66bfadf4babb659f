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
// Cost when disabled: one thread-local read per site (is a collector
// bound on this thread?). No lock, no clock read, no string work.
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
//     workers fold to the same bits regardless of arrival order.
//   * Spans live in sequential flow code (same rule as NM_FAULT_POINT),
//     so the span tree's shape and order are identical at any --threads;
//     only the recorded wall times vary run to run. Serializers that need
//     byte-determinism mask the times (RunReport::to_json(false)).
//
// Where a record lands: in the collector bound to the current thread by
// the innermost TraceScope, or nowhere. Nothing is process-wide, so
// concurrent flow runs on different threads never see each other's
// records. ThreadPool propagates the submitting thread's binding to the
// workers executing its tasks, so a run's inner parallel stages record
// into the run's own collector too. run_nanomap binds a private
// collector when asked to trace and none is bound (flow/nanomap_flow.h).
#pragma once

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

// One run's worth of trace state: counters, value observations,
// and the span tree, behind one mutex. Bind it to a thread with
// TraceScope; every method is safe to call from pool workers.
class TraceCollector {
 public:
  TraceCollector();
  ~TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  void count(const char* site, long delta);
  void value(const char* site, double v);

  // Folds `other`'s counters and raw value observations (not its spans)
  // into this collector. The value summaries stay independent of the
  // order collectors are absorbed in, because snapshot() sums sorted.
  void absorb(const TraceCollector& other);

  // Span recording: begin returns an id for end. Nesting is tracked with
  // a thread-local stack, so a span opened on a worker thread nests under
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

// The collector bound to this thread by the innermost TraceScope (null
// when none). Read by the NM_TRACE_* fast path; written only by
// TraceScope. constinit tells other translation units it needs no
// dynamic initialization, so they access it directly instead of through
// the thread_local init wrapper (which GCC 12 + UBSan reports as a store
// to a null pointer on pool worker threads).
extern constinit thread_local TraceCollector* tls_trace_collector;

}  // namespace internal

// The collector an NM_TRACE_* site on this thread records into right now
// (null when none is bound).
inline TraceCollector* active_trace_collector() {
  return internal::tls_trace_collector;
}

class Trace {
 public:
  // True iff a collector is bound on this thread.
  static bool enabled() { return active_trace_collector() != nullptr; }

  // The canonical site registries (docs/OBSERVABILITY.md mirrors these).
  // tests/trace_test.cc asserts every site a traced flow run hits is
  // listed here — add the entry with the NM_TRACE_* call.
  static const std::vector<std::string>& known_counter_sites();
  static const std::vector<std::string>& known_value_sites();
  static const std::vector<std::string>& known_span_names();
};

// Binds `collector` (null = none) as this thread's trace collector for
// the lifetime of the scope: NM_TRACE_* sites on this thread — and on
// pool workers executing tasks submitted while bound (ThreadPool
// propagates the binding) — record into it. The caller owns the
// collector and must keep it alive for the scope's lifetime (plus any
// pool tasks submitted under it). Nestable; restores the previous
// binding on exit.
class TraceScope {
 public:
  explicit TraceScope(TraceCollector* collector)
      : previous_(internal::tls_trace_collector) {
    internal::tls_trace_collector = collector;
  }
  ~TraceScope() { internal::tls_trace_collector = previous_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceCollector* previous_;
};

namespace internal {

// RAII helper behind NM_TRACE_SPAN. The target collector is resolved once
// at construction; a span that straddles a rebinding is closed against
// its original collector.
class ScopedTraceSpan {
 public:
  explicit ScopedTraceSpan(const char* name) {
    collector_ = active_trace_collector();
    if (collector_ != nullptr) id_ = collector_->begin_span(name);
  }
  ~ScopedTraceSpan() {
    if (collector_ != nullptr) collector_->end_span(id_);
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
