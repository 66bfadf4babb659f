#include "util/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>

namespace nanomap {

using Clock = std::chrono::steady_clock;

namespace internal {

constinit thread_local TraceCollector* tls_trace_collector = nullptr;

}  // namespace internal

namespace {

struct SpanRecord {
  const char* name;
  int parent;
  int depth;
  Clock::time_point begin;
  Clock::time_point end;
  bool open = true;
};

// Per-thread span nesting stack (indices into Impl::spans). Thread-local
// so a stray span on a worker thread nests within that thread only
// instead of corrupting the flow's stage tree. The stack belongs to one
// (collector, epoch) pair: tls_span_owner invalidates it when the thread
// switches between collectors (e.g. a server worker moving to the next
// job's collector), and tls_epoch when a new collector reuses a freed
// one's address — per-run collectors live on the stack, so recycled
// addresses are routine. Epoch values are process-unique.
thread_local std::vector<int> tls_span_stack;
thread_local long tls_epoch = -1;
thread_local const void* tls_span_owner = nullptr;

// Process-unique epoch source shared by every collector.
long next_trace_epoch() {
  static std::atomic<long> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

struct TraceCollector::Impl {
  mutable std::mutex mu;
  std::map<std::string, long> counters;
  // Raw observations per value site. snapshot() folds them in sorted
  // order so the summary doubles are independent of arrival order (and
  // therefore of thread interleaving).
  std::map<std::string, std::vector<double>> values;
  std::vector<SpanRecord> spans;
  // Process-unique, so a thread's nesting stack from a dead collector at
  // the same address can't leak into this one.
  const long epoch = next_trace_epoch();
};

TraceCollector::TraceCollector() : impl_(new Impl) {}
TraceCollector::~TraceCollector() { delete impl_; }

void TraceCollector::count(const char* site, long delta) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->counters[site] += delta;
}

void TraceCollector::value(const char* site, double v) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->values[site].push_back(v);
}

void TraceCollector::absorb(const TraceCollector& other) {
  std::map<std::string, long> counters;
  std::map<std::string, std::vector<double>> values;
  {
    std::lock_guard<std::mutex> lock(other.impl_->mu);
    counters = other.impl_->counters;
    values = other.impl_->values;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& [site, value] : counters) impl_->counters[site] += value;
  for (const auto& [site, raw] : values) {
    std::vector<double>& mine = impl_->values[site];
    mine.insert(mine.end(), raw.begin(), raw.end());
  }
}

int TraceCollector::begin_span(const char* name) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (tls_epoch != impl_->epoch || tls_span_owner != impl_) {
    tls_span_stack.clear();
    tls_epoch = impl_->epoch;
    tls_span_owner = impl_;
  }
  SpanRecord rec;
  rec.name = name;
  rec.parent = tls_span_stack.empty() ? -1 : tls_span_stack.back();
  rec.depth = static_cast<int>(tls_span_stack.size());
  rec.begin = now;
  rec.end = now;
  int id = static_cast<int>(impl_->spans.size());
  impl_->spans.push_back(rec);
  tls_span_stack.push_back(id);
  return id;
}

void TraceCollector::end_span(int id) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(impl_->mu);
  SpanRecord& rec = impl_->spans[static_cast<std::size_t>(id)];
  rec.end = now;
  rec.open = false;
  if (tls_epoch == impl_->epoch && tls_span_owner == impl_ &&
      !tls_span_stack.empty() && tls_span_stack.back() == id)
    tls_span_stack.pop_back();
}

TraceSnapshot TraceCollector::snapshot() const {
  const Clock::time_point now = Clock::now();
  TraceSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);
  snap.spans.reserve(impl_->spans.size());
  for (const SpanRecord& rec : impl_->spans) {
    TraceSpan s;
    s.name = rec.name;
    s.parent = rec.parent;
    s.depth = rec.depth;
    s.wall_ms = ms_between(rec.begin, rec.open ? now : rec.end);
    snap.spans.push_back(std::move(s));
  }
  for (const auto& [site, value] : impl_->counters)
    snap.counters.push_back({site, value});
  for (const auto& [site, raw] : impl_->values) {
    // Fold in ascending value order: the summary is then a function of
    // the observation multiset alone, never of arrival order.
    std::vector<double> sorted = raw;
    std::sort(sorted.begin(), sorted.end());
    TraceValueRow row;
    row.site = site;
    row.count = static_cast<long>(sorted.size());
    for (double v : sorted) row.sum += v;
    row.min = sorted.empty() ? 0.0 : sorted.front();
    row.max = sorted.empty() ? 0.0 : sorted.back();
    snap.values.push_back(std::move(row));
  }
  return snap;
}

std::vector<TraceSpan> TraceSnapshot::aggregate_spans() const {
  // Fold spans that share a path (root/.../name). Paths are built from
  // parent links; order is first occurrence in begin order, which the
  // sequential-spans contract makes deterministic.
  std::vector<std::string> path_of(spans.size());
  std::vector<TraceSpan> rows;
  std::map<std::string, std::size_t> row_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    path_of[i] = s.parent < 0
                     ? s.name
                     : path_of[static_cast<std::size_t>(s.parent)] + "/" +
                           s.name;
    auto it = row_of.find(path_of[i]);
    if (it == row_of.end()) {
      TraceSpan row = s;
      row.name = path_of[i];
      row.calls = 1;
      row_of.emplace(path_of[i], rows.size());
      rows.push_back(std::move(row));
    } else {
      TraceSpan& row = rows[it->second];
      ++row.calls;
      row.wall_ms += s.wall_ms;
    }
  }
  return rows;
}

std::string TraceSnapshot::render() const {
  std::ostringstream os;
  os << "trace: stage tree (wall ms summed over calls)\n";
  for (const TraceSpan& s : aggregate_spans()) {
    os << "  ";
    for (int d = 0; d < s.depth; ++d) os << "  ";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", s.wall_ms);
    os << s.name.substr(s.name.rfind('/') + 1) << "  " << buf << " ms  x"
       << s.calls << "\n";
  }
  if (!counters.empty()) {
    os << "trace: counters\n";
    for (const TraceCounterRow& c : counters)
      os << "  " << c.site << " = " << c.value << "\n";
  }
  if (!values.empty()) {
    os << "trace: values (count / sum / min / max)\n";
    for (const TraceValueRow& v : values) {
      os << "  " << v.site << " = " << v.count << " / " << v.sum << " / "
         << v.min << " / " << v.max << "\n";
    }
  }
  return os.str();
}

const std::vector<std::string>& Trace::known_counter_sites() {
  // One entry per NM_TRACE_COUNT site (docs/OBSERVABILITY.md).
  static const std::vector<std::string> sites = {
      "bitmap.bits",           // flow: configuration bits emitted
      "bitmap.configs",        // flow: NRAM configuration sets emitted
      "defect.le_masked",      // place: dead LE slots masked on the grid
      "defect.smb_masked",     // place: dead SMB sites masked on the grid
      "defect.wire_masked",    // route/rr_graph: broken wire tracks masked
      "explore.candidates",    // flow/explore: candidate flow jobs run
      "fds.candidates_scored", // core/fds_kernel: dirty (node,stage) rescored
      "fds.pins",              // core/fds_kernel: nodes pinned to a stage
      "fds.schedule_calls",    // core/fds_kernel: FDS scheduler invocations
      "flow.events",           // flow: typed diagnostic trail entries
      "flow.levels_tried",     // flow: folding levels given to the physical flow
      "flow.recovery.events",  // flow: retry/escalate/fallback/degrade events
      "place.accepted",        // place: SA moves accepted (all restarts)
      "place.calls",           // place: place_design invocations
      "place.defect_rejects",  // place/annealer: moves refused by dead sites
      "place.frozen_exits",    // place/annealer: anneals stopped once frozen
      "place.moves",           // place: SA moves attempted (all restarts)
      "place.nets",            // place: nets of each placed design
      "place.restarts",        // place: independent annealing chains run
      "place.smb_sets",        // place: distinct SMB sets (annealer boxes)
      "place.temperatures",    // place/annealer: temperature steps annealed
      "route.calls",           // route: route_design invocations
      "route.defect_avoided",  // route/pathfinder: capacity-0 channels kept clean
      "route.reroutes",        // route/pathfinder: net searches (nets x iterations)
      "route.stalled_cycles",  // route/pathfinder: failing cycles the stall rule stopped
  };
  return sites;
}

const std::vector<std::string>& Trace::known_value_sites() {
  // One entry per NM_TRACE_VALUE site (docs/OBSERVABILITY.md).
  static const std::vector<std::string> sites = {
      "cluster.le_utilization",     // flow: LEs used / LE capacity, per candidate
      "fds.dirty_per_pin",          // core/fds_kernel: candidates rescored per pin
      "fds.le_per_stage",           // flow: LE usage of each folding stage
      "place.accepted_per_temp",    // place/annealer: accepts per temperature
      "place.cost",                 // place: winning placement cost
      "route.channel_occupancy",    // flow: wire nodes used / RR nodes, per route
      "route.cycle_tasks",          // route: non-empty cycles per route_design call
      "route.iterations_per_cycle", // route: PathFinder iterations per cycle
      "route.overuse_per_cycle",    // route: residual overused nodes per cycle
      "route.rip_ups_per_iter",     // route: nets ripped up per iteration
      "route.wire_nodes_per_cycle", // route: wire nodes claimed per cycle
  };
  return sites;
}

const std::vector<std::string>& Trace::known_span_names() {
  // One entry per NM_TRACE_SPAN name (docs/OBSERVABILITY.md). Paths in
  // reports are slash-joined from these (e.g. "flow/place").
  static const std::vector<std::string> sites = {
      "bitmap",    // flow: configuration bitmap emission
      "cluster",   // flow: temporal clustering + verification
      "explore",   // flow/explore: whole run_nanomap_explore body
      "fds.plane", // core/fds: one plane's scheduling (any scheduler kind)
      "flow",      // flow: whole run_nanomap body
      "place",     // flow: placement (all restarts)
      "route",     // flow: routing ladder for one placement attempt
      "rr_build",  // flow: one RR-graph build inside the routing ladder
      "schedule",  // flow: scheduling of all planes at one level
      "sta",       // flow: static timing analysis
  };
  return sites;
}

}  // namespace nanomap
