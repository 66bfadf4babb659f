// The repository benchmark (see README.md for the workloads, the
// metrics and which layer each metric is expected to move).
//
//   perfbench --workload paper7|defect_fabric|serve_stream --seed N
//             --seconds S --trace 0|1 [--git-describe D] [--git-dirty 0|1]
//   perfbench --self-test
//
// Every run prints a host header ("# host {...}") first and, as its last
// stdout line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
// adds a traced pass and reports the per-layer metrics read from the
// RunReport spans and counters the flow already records.
//
// Layers are measured from outside: the benchmark times its own calls into
// load_design_spec, run_nanomap, serve_jobs and the RrGraph constructor.
// Every output is checked outside the timed region, and each failed check
// counts as a failed job.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "bitstream/bitmap.h"
#include "bitstream/emulator.h"
#include "flow/nanomap_flow.h"
#include "netlist/simulate.h"
#include "route/pathfinder.h"
#include "route/rr_graph.h"
#include "serve/cache.h"
#include "serve/job.h"
#include "serve/server.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace nanomap;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Statistics

// Percentile with linear interpolation between closest ranks, q in
// [0, 1]. Smoother than nearest rank when q falls between two circuits of
// a mixed job set.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Seed of stream `stream` under workload seed `seed`, kept below 2^53 so
// every job seed is also expressible on a serving job line.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return derive_seed(seed, stream) >> 11;
}

// ---------------------------------------------------------------------------
// Metric names. The order and units here are the contract with
// BENCHMARK.json (run.py cross-checks the names on every run).

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"jobs_per_s", "1/s"},
      {"compile_ms_geomean", "ms"},
      {"job_ms_p50", "ms"},
      {"job_ms_p90", "ms"},
      {"les_geomean", "LE"},
      {"delay_ns_geomean", "ns"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"map.load_ms", "ms"},
      {"core.schedule_ms", "ms"},
      {"core.cluster_ms", "ms"},
      {"core.fds_pins", "count"},
      {"core.fds_schedule_calls", "count"},
      {"core.levels_tried", "count"},
      {"place.ms", "ms"},
      {"place.calls", "count"},
      {"place.moves", "count"},
      {"place.moves_per_s", "1/s"},
      {"place.accept_ratio", "ratio"},
      {"place.temperatures", "count"},
      {"place.defect_rejects", "count"},
      {"route.ms", "ms"},
      {"route.flow_share", "ratio"},
      {"route.calls", "count"},
      {"route.reroutes", "count"},
      {"route.net_cache_hit_rate", "ratio"},
      {"route.cycle_reuse_rate", "ratio"},
      {"route.rr_build_ms", "ms"},
      {"route.sta_ms", "ms"},
      {"route.defect_avoided", "count"},
      {"bitstream.bitmap_ms", "ms"},
      {"bitstream.bits", "count"},
      {"flow.ms", "ms"},
      {"flow.self_ms", "ms"},
      {"flow.span_coverage", "ratio"},
      {"flow.ladder_events", "count"},
      {"serve.service_ms_p50", "ms"},
      {"serve.service_ms_p90", "ms"},
      {"serve.wait_ms_p50", "ms"},
      {"serve.wait_ms_p90", "ms"},
      {"serve.wait_share_p50", "ratio"},
      {"serve.worker_busy", "ratio"},
      {"serve.design_hit_rate", "ratio"},
      {"serve.arch_hit_rate", "ratio"},
      {"serve.rr_hit_rate", "ratio"},
      {"serve.rejected", "count"},
      {"bench.gen_lag_ms_max", "ms"},
      {"bench.trace_overhead", "ratio"},
  };
  return defs;
}

// ---------------------------------------------------------------------------
// Host

// The pool width the benchmark is designed for; a host with fewer usable
// CPUs runs narrower pools and is flagged in the header.
constexpr int kTargetPoolWidth = 4;

struct Host {
  int nproc = 1;             // CPUs this process may run on
  int hardware_threads = 1;  // std::thread::hardware_concurrency
  int pool_width = 1;        // flow threads / serve workers
};

Host detect_host() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    h.nproc = std::max(1, CPU_COUNT(&set));
  h.hardware_threads = ThreadPool::hardware_threads();
  h.pool_width = std::min(kTargetPoolWidth, h.nproc);
  return h;
}

void print_host_header(const Host& h, const std::string& workload,
                       const std::string& git_describe,
                       const std::string& git_dirty) {
  JsonWriter w(/*compact=*/true);
  w.begin_object();
  w.field("workload", workload);
  w.field("nproc", h.nproc);
  w.field("hardware_threads", h.hardware_threads);
  w.field("flow_threads", h.pool_width);
  w.field("serve_workers", h.pool_width);
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("compiler", PERFBENCH_COMPILER);
  w.field("git_describe", git_describe);
  w.field("git_dirty", git_dirty);
  // ROADMAP "Correct on any host" (b): rows recorded with fewer cores than
  // the pool width, or on a single hardware thread, measure no parallelism.
  w.field("nproc_below_pool_width", h.nproc < kTargetPoolWidth);
  w.field("single_thread_host", h.hardware_threads == 1);
  w.end();
  std::cout << "# host " << w.str() << std::endl;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// ---------------------------------------------------------------------------
// Output checks (run outside every timed region)

const std::vector<std::string> kPaperCircuits = {
    "ex1", "FIR", "ex2", "c5315", "Biquad", "Paulin", "ASPP4"};

// The paper instance with every channel halved and a seeded defect map:
// the fabric on which PathFinder negotiates and the recovery ladder climbs.
// The map is one fixed chip; the workload seed varies the flow seeds. A
// per-seed map moves les_geomean by ~25% from seed to seed (dead sites
// push circuits to other folding levels), more than any bound allows.
constexpr std::uint64_t kDefectMapSeed = 1;

ArchParams defect_arch(std::uint64_t defect_seed) {
  ArchParams arch = ArchParams::paper_instance();
  arch.len1_tracks = 14;
  arch.len4_tracks = 7;
  arch.global_tracks = 4;
  arch.direct_links_per_side = 6;
  arch.defects.seed = defect_seed;
  arch.defects.le_rate = 0.01;
  arch.defects.wire_rate = 0.01;
  arch.defects.smb_rate = 0.0025;
  arch.validate();
  arch.defects.validate();
  return arch;
}

// Folded emulation of the mapped design against cycle-accurate netlist
// simulation on random input vectors (the tests/equivalence_test.cc check).
bool check_emulation(const Design& golden_design, const Design& mapped_design,
                     const FlowResult& r, std::uint64_t seed,
                     std::string* why) {
  try {
    const LutNetwork& net = golden_design.net;
    Simulator golden(net);
    FoldedEmulator folded(mapped_design, r.schedule, r.clustered);
    golden.reset(false);
    folded.reset(false);
    std::vector<int> inputs;
    for (int id = 0; id < net.size(); ++id)
      if (net.node(id).kind == NodeKind::kInput) inputs.push_back(id);
    Rng rng(seed);
    for (int step = 0; step < 16; ++step) {
      for (int pi : inputs) {
        const bool v = rng.next_bool();
        golden.set_input(pi, v);
        folded.set_input(pi, v);
      }
      golden.step();
      folded.run_pass();
      for (int id = 0; id < net.size(); ++id) {
        if (net.node(id).kind == NodeKind::kOutput &&
            folded.value(id) != golden.value(id)) {
          *why = "emulator: output " + net.node(id).name + " differs at step " +
                 std::to_string(step);
          return false;
        }
      }
      golden.evaluate();
      for (int id = 0; id < net.size(); ++id) {
        if (net.node(id).kind == NodeKind::kFlipFlop &&
            folded.value(id) != golden.value(id)) {
          *why = "emulator: register " + net.node(id).name +
                 " differs at step " + std::to_string(step);
          return false;
        }
      }
    }
  } catch (const std::exception& e) {
    *why = std::string("emulator: ") + e.what();
    return false;
  }
  return true;
}

bool check_routing(const FlowResult& r, const RoutingResult& routing,
                   const RrGraph& rr, std::string* why) {
  std::string detail;
  if (validate_routing(r.clustered, r.placement.placement, rr, routing,
                       &detail))
    return true;
  *why = "validate_routing: " + detail;
  return false;
}

bool check_bitmap_defects(const FlowResult& r, const Placement& placement,
                          const RrGraph& rr, std::string* why) {
  std::string detail;
  if (verify_bitmap_defects(r.bitmap, placement, rr, &detail)) return true;
  *why = "verify_bitmap_defects: " + detail;
  return false;
}

// All checks on one flow result. Times the RrGraph rebuild into
// *rr_build_ms (the only RR-graph build visible from outside the flow).
bool check_flow_result(const Design& design, const FlowResult& r,
                       std::uint64_t vector_seed, double* rr_build_ms,
                       std::string* why) {
  if (!r.feasible) {
    *why = "infeasible: " + r.message;
    return false;
  }
  if (!check_emulation(design, design, r, vector_seed, why)) return false;
  const auto t0 = Clock::now();
  RrGraph rr(r.placement.placement.grid, r.routed_arch);
  *rr_build_ms = ms_between(t0, Clock::now());
  if (!check_routing(r, r.routing, rr, why)) return false;
  if (r.routed_arch.defects.active() &&
      !check_bitmap_defects(r, r.placement.placement, rr, why))
    return false;
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer accumulation from RunReports

struct LayerTotals {
  std::map<std::string, double> stage_ms;  // aggregated span path -> ms
  std::map<std::string, double> counters;  // counter site -> total
  double levels_tried = 0.0;

  void add(const RunReport& report) {
    for (const TraceSpan& s : report.stages) stage_ms[s.name] += s.wall_ms;
    for (const TraceCounterRow& c : report.counters)
      counters[c.site] += static_cast<double>(c.value);
    levels_tried += report.levels_tried;
  }
  double stage(const std::string& path) const {
    auto it = stage_ms.find(path);
    return it == stage_ms.end() ? 0.0 : it->second;
  }
  double counter(const std::string& site) const {
    auto it = counters.find(site);
    return it == counters.end() ? 0.0 : it->second;
  }
  // Wall time of the direct children of the root "flow" span.
  double flow_children_ms() const {
    double sum = 0.0;
    for (const auto& [path, ms] : stage_ms)
      if (path.rfind("flow/", 0) == 0 &&
          path.find('/', 5) == std::string::npos)
        sum += ms;
    return sum;
  }
};

void fill_flow_layers(const LayerTotals& t,
                      std::map<std::string, double>* m) {
  auto& out = *m;
  const double flow_ms = t.stage("flow");
  const double children = t.flow_children_ms();
  const double place_ms = t.stage("flow/place");
  const double route_ms = t.stage("flow/route");
  out["core.schedule_ms"] = t.stage("flow/schedule");
  out["core.cluster_ms"] = t.stage("flow/cluster");
  out["core.fds_pins"] = t.counter("fds.pins");
  out["core.fds_schedule_calls"] = t.counter("fds.schedule_calls");
  out["core.levels_tried"] = t.levels_tried;
  out["place.ms"] = place_ms;
  out["place.calls"] = t.counter("place.calls");
  out["place.moves"] = t.counter("place.moves");
  out["place.moves_per_s"] = ratio(t.counter("place.moves"), place_ms / 1e3);
  out["place.accept_ratio"] =
      ratio(t.counter("place.accepted"), t.counter("place.moves"));
  out["place.temperatures"] = t.counter("place.temperatures");
  out["place.defect_rejects"] = t.counter("place.defect_rejects");
  out["route.ms"] = route_ms;
  out["route.flow_share"] = ratio(route_ms, flow_ms);
  out["route.calls"] = t.counter("route.calls");
  out["route.reroutes"] = t.counter("route.reroutes");
  const double net_hits = t.counter("route.net_cache_hits");
  out["route.net_cache_hit_rate"] =
      ratio(net_hits, net_hits + t.counter("route.net_cache_misses"));
  out["route.cycle_reuse_rate"] = ratio(t.counter("route.cycles_reused"),
                                        t.counter("route.cycle_cache_lookups"));
  out["route.sta_ms"] = t.stage("flow/sta");
  out["route.defect_avoided"] = t.counter("route.defect_avoided");
  out["bitstream.bitmap_ms"] = t.stage("flow/bitmap");
  out["bitstream.bits"] = t.counter("bitmap.bits");
  out["flow.ms"] = flow_ms;
  out["flow.self_ms"] = flow_ms - children;
  out["flow.span_coverage"] = ratio(children, flow_ms);
  out["flow.ladder_events"] = t.counter("flow.recovery.events");
}

// ---------------------------------------------------------------------------
// Result line

struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, double> metrics;
};

void print_result(const Outcome& o, bool trace) {
  JsonWriter w(/*compact=*/true);
  w.begin_object();
  w.field("correct", o.failed == 0);
  w.field("attempted", o.attempted);
  w.field("failed", o.failed);
  w.key("metrics");
  w.begin_object();
  const auto& defs = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricDef& d : defs) {
    auto it = o.metrics.find(d.name);
    w.key(d.name);
    w.begin_object();
    w.field("value", it == o.metrics.end() ? 0.0 : it->second);
    w.field("unit", d.unit);
    w.end();
  }
  w.end();
  w.end();
  std::cout << w.str() << std::endl;
}

void report_failure(const std::string& job, const std::string& why) {
  std::cerr << "perfbench: FAILED " << job << ": " << why << "\n";
}

// Median of `reps` timed calls of `setup`, in seconds. The set-up is
// repeated so a later change that moves work into it shows as a steady
// number rather than as one noisy sample.
double timed_setup_s(const std::function<void()>& setup, int reps = 5) {
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    secs.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return percentile(secs, 0.5);
}

// ---------------------------------------------------------------------------
// Flow workloads: paper7 and defect_fabric (closed loop, one job at a time)

struct FlowJob {
  std::string spec;
  FlowOptions options;
  bool first_seed = false;  // the circuit's first flow seed
};

// Flow seeds per circuit. defect_fabric needs more than two: ex2 lands on
// the ladder for about half of all seeds (~190 ms vs ~500 ms), which alone
// moved a two-seed geomean by ~15% between workload seeds.
constexpr int kSeedsPerCircuit = 5;

std::vector<FlowJob> make_flow_jobs(bool defects, std::uint64_t seed,
                                    int threads) {
  ArchParams arch = defects ? defect_arch(kDefectMapSeed)
                            : ArchParams::paper_instance();
  // Seed-major order: each circuit's samples spread over the whole pass,
  // so a slow spell of the host does not land on one circuit alone.
  std::vector<FlowJob> jobs;
  for (int k = 0; k < kSeedsPerCircuit; ++k) {
    for (const std::string& circuit : kPaperCircuits) {
      FlowJob job;
      job.spec = "bench:" + circuit;
      job.options.arch = arch;
      job.options.seed = stream_seed(seed, static_cast<std::uint64_t>(k + 1));
      job.options.threads = threads;
      job.first_seed = k == 0;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

struct FlowJobSample {
  double load_ms = 0.0;
  double job_ms = 0.0;  // load_design_spec + run_nanomap
  double rr_build_ms = 0.0;  // the checker's RrGraph rebuild
  int les = 0;
  double delay_ns = 0.0;
};

struct FlowPass {
  std::vector<FlowJobSample> samples;  // one per job, in job order
  LayerTotals layers;                  // traced passes only

  double sum(double FlowJobSample::*field) const {
    double total = 0.0;
    for (const FlowJobSample& s : samples) total += s.*field;
    return total;
  }
};

FlowPass run_flow_pass(const std::vector<FlowJob>& jobs, bool trace,
                       std::uint64_t seed, Outcome* outcome) {
  FlowPass pass;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    FlowOptions options = jobs[i].options;
    options.collect_trace = trace;
    const auto t0 = Clock::now();
    const Design design = load_design_spec(jobs[i].spec);
    const auto t1 = Clock::now();
    const FlowResult r = run_nanomap(design, options);
    const auto t2 = Clock::now();

    FlowJobSample s;
    s.load_ms = ms_between(t0, t1);
    s.job_ms = ms_between(t0, t2);
    s.les = r.num_les;
    s.delay_ns = r.delay_ns;
    ++outcome->attempted;
    std::string why;
    if (!check_flow_result(design, r, derive_seed(seed, 5000 + i),
                           &s.rr_build_ms, &why)) {
      ++outcome->failed;
      report_failure(jobs[i].spec + " seed " +
                         std::to_string(jobs[i].options.seed),
                     why);
    }
    if (trace) pass.layers.add(r.report);
    pass.samples.push_back(s);
  }
  return pass;
}

Outcome run_flow_workload(bool defects, std::uint64_t seed, double seconds,
                          bool trace, const Host& host) {
  Outcome o;
  std::vector<FlowJob> jobs;
  const double setup_s = timed_setup_s([&] {
    jobs = make_flow_jobs(defects, seed, host.pool_width);
    // Warm-up: load every circuit once (proves each input loads and pages
    // the front end in before the first timed job).
    for (const std::string& circuit : kPaperCircuits)
      (void)load_design_spec("bench:" + circuit);
  });

  if (trace) {
    // The traced pass covers the whole workload; an untraced pass over
    // each circuit's first seed is the base of bench.trace_overhead.
    std::vector<FlowJob> base_jobs;
    for (const FlowJob& job : jobs)
      if (job.first_seed) base_jobs.push_back(job);
    const FlowPass base = run_flow_pass(base_jobs, /*trace=*/false, seed, &o);
    const FlowPass traced = run_flow_pass(jobs, /*trace=*/true, seed, &o);
    double traced_base_ms = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (jobs[i].first_seed) traced_base_ms += traced.samples[i].job_ms;
    fill_flow_layers(traced.layers, &o.metrics);
    o.metrics["map.load_ms"] = traced.sum(&FlowJobSample::load_ms);
    o.metrics["route.rr_build_ms"] = traced.sum(&FlowJobSample::rr_build_ms);
    o.metrics["bench.trace_overhead"] =
        ratio(traced_base_ms, base.sum(&FlowJobSample::job_ms));
    return o;
  }

  // Whole passes until `seconds` have elapsed.
  std::vector<FlowPass> passes;
  const auto start = Clock::now();
  do {
    passes.push_back(run_flow_pass(jobs, /*trace=*/false, seed, &o));
  } while (ms_between(start, Clock::now()) < seconds * 1e3);

  std::vector<double> job_ms, les, delay;
  std::map<std::string, std::vector<double>> circuit_ms;
  for (const FlowPass& p : passes) {
    for (std::size_t i = 0; i < p.samples.size(); ++i) {
      const FlowJobSample& s = p.samples[i];
      job_ms.push_back(s.job_ms);
      circuit_ms[jobs[i].spec].push_back(s.job_ms);
      if (s.les > 0) les.push_back(s.les);
      if (s.delay_ns > 0.0) delay.push_back(s.delay_ns);
    }
  }
  // Closed-loop latency percentiles are taken over the per-circuit median
  // job times. Over the raw jobs of a seven-circuit mix, p50 and p90 fall
  // between circuits and jump with a seed's ladder luck (20-35% run to
  // run); the per-circuit medians keep only the machine's own noise.
  std::vector<double> circuit_medians;
  for (const auto& [spec, ms] : circuit_ms)
    circuit_medians.push_back(percentile(ms, 0.5));
  double timed_ms = 0.0;
  for (double ms : job_ms) timed_ms += ms;

  o.metrics["setup_s"] = setup_s;
  o.metrics["jobs_per_s"] =
      ratio(static_cast<double>(job_ms.size()), timed_ms / 1e3);
  o.metrics["compile_ms_geomean"] = geomean(job_ms);
  o.metrics["job_ms_p50"] = percentile(circuit_medians, 0.50);
  o.metrics["job_ms_p90"] = percentile(circuit_medians, 0.90);
  o.metrics["les_geomean"] = geomean(les);
  o.metrics["delay_ns_geomean"] = geomean(delay);
  o.metrics["peak_rss_mb"] = static_cast<double>(peak_rss_kb()) / 1024.0;
  return o;
}

// ---------------------------------------------------------------------------
// serve_stream: open-loop JSON-lines jobs through a pipe into serve_jobs

// Reads a file descriptor (the pipe's read end) as an istream.
class FdInBuf : public std::streambuf {
 public:
  explicit FdInBuf(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override {
    ssize_t n = 0;
    do {
      n = ::read(fd_, buf_, sizeof(buf_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(*gptr());
  }

 private:
  int fd_;
  char buf_[4096];
};

// An ostream target that records when each complete line was written.
// serve_jobs writes response lines under its emit lock, so calls arrive
// serialized.
class StampedLineBuf : public std::streambuf {
 public:
  struct Line {
    Clock::time_point written;
    std::string text;
  };
  const std::vector<Line>& lines() const { return lines_; }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof()))
      return traits_type::not_eof(c);
    put(traits_type::to_char_type(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char ch) {
    if (ch != '\n') {
      current_.push_back(ch);
      return;
    }
    lines_.push_back({Clock::now(), std::move(current_)});
    current_.clear();
  }
  std::string current_;
  std::vector<Line> lines_;
};

struct ServeLine {
  std::string text;
  std::string expect_status;  // "done" (and ok) or "rejected"
};

// At least this many lines, and enough to offer load for --seconds.
constexpr int kMinServeLines = 128;
constexpr double kServeRatePerS = 10.0;

// Jobs cycle over four bundled benchmarks and the four example designs
// (one per front-end parser) and, round by round, over three objectives,
// so every seed serves the same (circuit, objective) mix. The seed picks
// each job's flow seed from a pool of three, which makes cache keys
// repeat, and the positions of four malformed lines that must come back
// rejected.
std::vector<ServeLine> make_serve_lines(std::uint64_t seed, int num_lines,
                                        bool trace) {
  const std::vector<std::string> circuits = {
      "bench:ex1",  "bench:FIR", "bench:ex2", "bench:c5315",
      "examples/designs/fir4.v", "examples/designs/mac16.nmap",
      "examples/designs/mac8.vhd", "examples/designs/s27.bench"};
  const std::vector<std::string> malformed = {
      "{\"circuit\":\"bench:ex1\",\"bogus\":true}",
      "{\"circuit\":\"bench:FIR\",",
      "{\"objective\":\"at\"}",
      "{\"circuit\":\"bench:no_such_circuit\"}"};
  const Objective objectives[] = {Objective::kAreaDelayProduct,
                                  Objective::kMinDelay, Objective::kMinArea};
  Rng rng(derive_seed(seed, 2000));
  std::vector<int> bad_at;
  while (bad_at.size() < malformed.size()) {
    const int at = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(num_lines)));
    if (std::find(bad_at.begin(), bad_at.end(), at) == bad_at.end())
      bad_at.push_back(at);
  }
  std::vector<ServeLine> lines;
  std::size_t job_index = 0;
  for (int i = 0; i < num_lines; ++i) {
    auto bad = std::find(bad_at.begin(), bad_at.end(), i);
    if (bad != bad_at.end()) {
      const auto which = static_cast<std::size_t>(bad - bad_at.begin());
      lines.push_back({malformed[which], "rejected"});
      continue;
    }
    ServeJob job;
    job.id = "j" + std::to_string(job_index);
    job.circuit = circuits[job_index % circuits.size()];
    job.objective = objectives[(job_index / circuits.size()) % 3];
    job.seed = stream_seed(seed, 1 + rng.next_below(3));
    job.trace = trace;
    lines.push_back({write_job_line(job), "done"});
    ++job_index;
  }
  return lines;
}

// The serve_stream check: one response per non-blank line, in input order,
// each with the status its line expects (done jobs must be feasible).
long check_serve_responses(const std::vector<ServeLine>& expected,
                           const std::vector<std::string>& responses,
                           std::vector<JsonValue>* parsed) {
  long failed = 0;
  if (responses.size() != expected.size()) {
    report_failure("serve_stream", "expected " +
                                       std::to_string(expected.size()) +
                                       " responses, got " +
                                       std::to_string(responses.size()));
    failed += static_cast<long>(
        std::max(expected.size(), responses.size()) -
        std::min(expected.size(), responses.size()));
  }
  for (std::size_t i = 0; i < std::min(expected.size(), responses.size());
       ++i) {
    JsonValue v;
    std::string why;
    try {
      v = parse_json(responses[i]);
      const JsonValue* line = v.find("line");
      const JsonValue* status = v.find("status");
      const JsonValue* ok = v.find("ok");
      if (line == nullptr || status == nullptr || ok == nullptr)
        why = "response lacks line/status/ok";
      else if (static_cast<std::size_t>(line->number) != i + 1)
        why = "out of order: response for line " +
              std::to_string(static_cast<long>(line->number));
      else if (status->string != expected[i].expect_status)
        why = "status " + status->string + ", expected " +
              expected[i].expect_status;
      else if (expected[i].expect_status == "done" && !ok->boolean)
        why = "job not feasible";
    } catch (const std::exception& e) {
      why = std::string("unparseable response: ") + e.what();
    }
    if (!why.empty()) {
      ++failed;
      report_failure("serve_stream line " + std::to_string(i + 1), why);
    }
    if (parsed != nullptr) parsed->push_back(std::move(v));
  }
  return failed;
}

struct ServeRun {
  double wall_ms = 0.0;     // first due time -> last response written
  double gen_lag_ms_max = 0.0;
  std::vector<double> response_ms;  // due -> written, per line
  std::vector<std::string> responses;
  ServeSummary summary;
};

ServeRun run_serve_stream(const std::vector<ServeLine>& lines,
                          const Host& host) {
  int fds[2];
  NM_CHECK_MSG(::pipe(fds) == 0, "pipe() failed");
  ServeRun run;
  const auto period = std::chrono::duration<double>(1.0 / kServeRatePerS);
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> due(lines.size());
  std::vector<double> lag_ms(lines.size(), 0.0);
  std::atomic<bool> stop{false};

  // The generator sends each line at its due time whether or not earlier
  // jobs have finished (an open loop), then closes the pipe.
  std::thread generator([&] {
    for (std::size_t i = 0; i < lines.size() && !stop; ++i) {
      due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                        period * static_cast<double>(i));
      std::this_thread::sleep_until(due[i]);
      lag_ms[i] = ms_between(due[i], Clock::now());
      const std::string text = lines[i].text + "\n";
      std::size_t off = 0;
      while (off < text.size()) {
        const ssize_t n =
            ::write(fds[1], text.data() + off, text.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
    }
    ::close(fds[1]);
  });

  FdInBuf inbuf(fds[0]);
  std::istream in(&inbuf);
  StampedLineBuf outbuf;
  std::ostream out(&outbuf);
  ServeOptions options;
  options.workers = host.pool_width;
  options.threads = host.pool_width;
  options.include_timings = true;
  try {
    run.summary = serve_jobs(in, out, options);
  } catch (...) {
    // Closing the read end first fails any blocked write (SIGPIPE is
    // ignored), so the generator can always be joined.
    stop = true;
    ::close(fds[0]);
    generator.join();
    throw;
  }
  generator.join();
  ::close(fds[0]);

  for (std::size_t i = 0; i < outbuf.lines().size(); ++i) {
    run.responses.push_back(outbuf.lines()[i].text);
    if (i < due.size())
      run.response_ms.push_back(
          ms_between(due[i], outbuf.lines()[i].written));
  }
  if (!outbuf.lines().empty())
    run.wall_ms = ms_between(t0, outbuf.lines().back().written);
  run.gen_lag_ms_max = *std::max_element(lag_ms.begin(), lag_ms.end());
  return run;
}

// A generator a whole inter-arrival gap behind its schedule no longer
// offers the stated rate, so the run is invalid.
constexpr double kMaxGenLagMs = 1e3 / kServeRatePerS;

struct ServeJobStats {
  std::vector<double> service_ms;  // report cpu_seconds, done jobs
  std::vector<double> wait_ms;     // response - service, done jobs
  std::vector<double> les, delay;
  LayerTotals layers;
};

ServeJobStats collect_serve_stats(const ServeRun& run,
                                  const std::vector<JsonValue>& parsed) {
  ServeJobStats st;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const JsonValue* report = parsed[i].find("report");
    const JsonValue* status = parsed[i].find("status");
    if (report == nullptr || status == nullptr || status->string != "done")
      continue;
    auto num = [report](const char* section, const char* key) {
      const JsonValue* sec = report->find(section);
      const JsonValue* v = sec != nullptr ? sec->find(key) : nullptr;
      return v != nullptr ? v->number : 0.0;
    };
    auto str = [](const JsonValue& row, const char* key) {
      const JsonValue* v = row.find(key);
      return v != nullptr ? v->string : std::string();
    };
    auto row_num = [](const JsonValue& row, const char* key) {
      const JsonValue* v = row.find(key);
      return v != nullptr ? v->number : 0.0;
    };
    const double service = num("outcome", "cpu_seconds") * 1e3;
    st.service_ms.push_back(service);
    if (i < run.response_ms.size())
      st.wait_ms.push_back(std::max(0.0, run.response_ms[i] - service));
    if (num("result", "num_les") > 0)
      st.les.push_back(num("result", "num_les"));
    if (num("result", "delay_ns") > 0)
      st.delay.push_back(num("result", "delay_ns"));

    RunReport rr;  // only the trace tables LayerTotals reads
    rr.levels_tried = static_cast<int>(num("outcome", "levels_tried"));
    if (const JsonValue* stages = report->find("stages")) {
      for (const JsonValue& s : stages->items) {
        TraceSpan span;
        span.name = str(s, "path");
        span.wall_ms = row_num(s, "wall_ms");
        rr.stages.push_back(span);
      }
    }
    if (const JsonValue* counters = report->find("counters")) {
      for (const JsonValue& c : counters->items)
        rr.counters.push_back(
            {str(c, "site"), static_cast<long>(row_num(c, "value"))});
    }
    st.layers.add(rr);
  }
  return st;
}

Outcome run_serve_workload(std::uint64_t seed, double seconds, bool trace,
                           const Host& host) {
  const int num_lines = std::max(
      kMinServeLines, static_cast<int>(std::ceil(seconds * kServeRatePerS)));
  Outcome o;
  std::vector<ServeLine> lines;
  const double setup_s = timed_setup_s([&] {
    lines = make_serve_lines(seed, num_lines, /*trace=*/false);
    // Warm-up: every circuit of the stream loads (the server's own caches
    // start cold in each run).
    std::vector<std::string> specs;
    for (const ServeLine& l : lines) {
      if (l.expect_status != "done") continue;
      const std::string spec = parse_job_line(l.text, 1).circuit;
      if (std::find(specs.begin(), specs.end(), spec) == specs.end())
        specs.push_back(spec);
    }
    for (const std::string& spec : specs) (void)load_design_spec(spec);
  });

  auto run_checked = [&](const std::vector<ServeLine>& stream,
                         std::vector<JsonValue>* parsed) {
    ServeRun run = run_serve_stream(stream, host);
    o.attempted += static_cast<long>(stream.size());
    o.failed += check_serve_responses(stream, run.responses, parsed);
    if (run.gen_lag_ms_max > kMaxGenLagMs) {
      std::cerr << "perfbench: invalid run: the generator ran "
                << run.gen_lag_ms_max << " ms behind schedule\n";
      std::exit(3);
    }
    return run;
  };

  std::vector<JsonValue> parsed;
  const ServeRun run = run_checked(lines, &parsed);
  const ServeJobStats untraced = collect_serve_stats(run, parsed);
  if (!trace) {
    const ServeJobStats& st = untraced;
    o.metrics["setup_s"] = setup_s;
    o.metrics["jobs_per_s"] =
        ratio(static_cast<double>(run.responses.size()), run.wall_ms / 1e3);
    o.metrics["compile_ms_geomean"] = geomean(st.service_ms);
    o.metrics["job_ms_p50"] = percentile(run.response_ms, 0.50);
    o.metrics["job_ms_p90"] = percentile(run.response_ms, 0.90);
    o.metrics["les_geomean"] = geomean(st.les);
    o.metrics["delay_ns_geomean"] = geomean(st.delay);
    o.metrics["peak_rss_mb"] = static_cast<double>(peak_rss_kb()) / 1024.0;
    return o;
  }

  const std::vector<ServeLine> traced_lines =
      make_serve_lines(seed, num_lines, /*trace=*/true);
  std::vector<JsonValue> traced_parsed;
  const ServeRun traced = run_checked(traced_lines, &traced_parsed);
  const ServeJobStats st = collect_serve_stats(traced, traced_parsed);
  fill_flow_layers(st.layers, &o.metrics);
  const double job_p50 = percentile(traced.response_ms, 0.50);
  const double wait_p50 = percentile(st.wait_ms, 0.50);
  double busy_ms = 0.0, untraced_busy_ms = 0.0;
  for (double s : st.service_ms) busy_ms += s;
  for (double s : untraced.service_ms) untraced_busy_ms += s;
  const ServeCaches::Stats& c = traced.summary.cache;
  o.metrics["serve.service_ms_p50"] = percentile(st.service_ms, 0.50);
  o.metrics["serve.service_ms_p90"] = percentile(st.service_ms, 0.90);
  o.metrics["serve.wait_ms_p50"] = wait_p50;
  o.metrics["serve.wait_ms_p90"] = percentile(st.wait_ms, 0.90);
  o.metrics["serve.wait_share_p50"] = ratio(wait_p50, job_p50);
  o.metrics["serve.worker_busy"] =
      ratio(busy_ms, host.pool_width * traced.wall_ms);
  o.metrics["serve.design_hit_rate"] = ratio(
      c.design_hits, static_cast<double>(c.design_hits + c.design_misses));
  o.metrics["serve.arch_hit_rate"] =
      ratio(c.arch_hits, static_cast<double>(c.arch_hits + c.arch_misses));
  o.metrics["serve.rr_hit_rate"] =
      ratio(c.rr_hits, static_cast<double>(c.rr_hits + c.rr_misses));
  o.metrics["serve.rejected"] = static_cast<double>(traced.summary.rejected);
  o.metrics["bench.gen_lag_ms_max"] =
      std::max(run.gen_lag_ms_max, traced.gen_lag_ms_max);
  // The stream's wall time is fixed by its schedule; service time is not.
  o.metrics["bench.trace_overhead"] = ratio(busy_ms, untraced_busy_ms);
  return o;
}

// ---------------------------------------------------------------------------
// Self-test: every check must pass on a real result and fail on a
// deliberately corrupted copy of it.

int self_test() {
  int bad = 0;
  auto expect = [&bad](const char* what, bool passed, bool want) {
    std::cout << "self-test: " << what << ": "
              << (passed == want ? "ok" : "WRONG") << "\n";
    if (passed != want) ++bad;
  };
  std::string why;

  {
    const Design design = load_design_spec("bench:FIR");
    FlowOptions options;
    const FlowResult r = run_nanomap(design, options);
    double rr_ms = 0.0;
    expect("flow checks pass on a real result",
           check_flow_result(design, r, 1, &rr_ms, &why), true);

    // A LUT driving a primary output or a register computes the complement.
    Design corrupt = design;
    for (int id = 0; id < corrupt.net.size(); ++id) {
      const LutNode& n = corrupt.net.node(id);
      if (n.kind != NodeKind::kOutput && n.kind != NodeKind::kFlipFlop)
        continue;
      const int source = n.fanins[0];
      if (corrupt.net.node(source).kind != NodeKind::kLut) continue;
      LutNode& lut = corrupt.net.mutable_node(source);
      const int bits = 1 << lut.fanins.size();
      const std::uint64_t mask =
          bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
      lut.truth = ~lut.truth & mask;
      break;
    }
    expect("emulation fails on an inverted LUT",
           check_emulation(design, corrupt, r, 1, &why), false);

    RoutingResult dropped = r.routing;
    dropped.nets.pop_back();
    RrGraph rr(r.placement.placement.grid, r.routed_arch);
    expect("routing check fails on a dropped net",
           check_routing(r, dropped, rr, &why), false);
  }

  {
    const Design design = load_design_spec("bench:FIR");
    FlowOptions options;
    options.arch = defect_arch(kDefectMapSeed);
    const FlowResult r = run_nanomap(design, options);
    double rr_ms = 0.0;
    expect("flow checks pass on a defect-fabric result",
           check_flow_result(design, r, 2, &rr_ms, &why), true);
    // Move one SMB onto each site in turn until it lands on a dead site or
    // a dead LE slot it configures.
    const Placement& placed = r.placement.placement;
    RrGraph rr(placed.grid, r.routed_arch);
    bool caught = false;
    for (int site = 0; site < placed.grid.sites() && !caught; ++site) {
      Placement moved = placed;
      moved.site_of_smb[0] = site;
      caught = !check_bitmap_defects(r, moved, rr, &why);
    }
    expect("bitmap defect audit fails on an SMB moved onto a dead site",
           !caught, false);
  }

  {
    const std::vector<ServeLine> lines = {
        {"{\"circuit\":\"bench:ex1\",\"seed\":1}", "done"},
        {"{\"circuit\":\"bench:ex1\",\"bogus\":true}", "rejected"},
        {"{\"circuit\":\"bench:ex1\",\"seed\":2}", "done"}};
    std::string text;
    for (const ServeLine& l : lines) text += l.text + "\n";
    std::istringstream in(text);
    std::ostringstream out;
    serve_jobs(in, out, ServeOptions{});
    std::vector<std::string> responses;
    std::istringstream split(out.str());
    for (std::string line; std::getline(split, line);)
      responses.push_back(line);
    expect("serve check passes on real responses",
           check_serve_responses(lines, responses, nullptr) == 0, true);

    std::vector<std::string> swapped = responses;
    std::swap(swapped[0], swapped[2]);
    expect("serve check fails on reordered responses",
           check_serve_responses(lines, swapped, nullptr) == 0, false);
    std::vector<std::string> short_stream(responses.begin(),
                                          responses.end() - 1);
    expect("serve check fails on a missing response",
           check_serve_responses(lines, short_stream, nullptr) == 0, false);
    std::vector<ServeLine> wrong_status = lines;
    wrong_status[1].expect_status = "done";
    expect("serve check fails on an unexpected status",
           check_serve_responses(wrong_status, responses, nullptr) == 0,
           false);
  }
  std::cout << "self-test: " << (bad == 0 ? "passed" : "FAILED") << std::endl;
  return bad == 0 ? 0 : 1;
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg << "\n"
            << "usage: perfbench --workload paper7|defect_fabric|serve_stream"
               " --seed N --seconds S --trace 0|1\n"
               "       perfbench --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, git_describe = "unknown", git_dirty = "unknown";
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") workload = value;
    else if (arg == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") seconds = std::atof(value.c_str());
    else if (arg == "--trace") trace = value == "1";
    else if (arg == "--git-describe") git_describe = value;
    else if (arg == "--git-dirty") git_dirty = value;
    else return usage(("unknown flag " + arg).c_str());
  }
  if (workload != "paper7" && workload != "defect_fabric" &&
      workload != "serve_stream")
    return usage("unknown workload");

  std::signal(SIGPIPE, SIG_IGN);
  const Host host = detect_host();
  print_host_header(host, workload, git_describe, git_dirty);
  try {
    const Outcome o =
        workload == "serve_stream"
            ? run_serve_workload(seed, seconds, trace, host)
            : run_flow_workload(workload == "defect_fabric", seed, seconds,
                                trace, host);
    print_result(o, trace);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
