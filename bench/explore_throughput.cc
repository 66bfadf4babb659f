// Design-space explorer throughput: run_nanomap_explore at --threads 1
// (candidates inline, one after another) vs --threads T (candidates as
// cold pool jobs) on a multi-candidate sweep (folding levels crossed with
// a widened-channel fabric variant). Besides the wall-clock comparison,
// every row *asserts* byte-identity of the fold — winner index, Pareto
// front, every candidate's metrics and serialized bitmap, and the merged
// diagnostic trail — across the two thread counts. The benchmark doubles
// as an end-to-end determinism check and exits nonzero on any divergence.
//
// Wall-clock note: the speedup scales with real cores; on a single-core
// host the two thread counts land at ~parity. Results are written under
// a host header (hardware threads, build type, the `git describe` passed
// in), so a checked-in file says where it was measured.
//
//   ./bench/explore_throughput [--smoke] [--git-describe D] [out.json]
//   (default out.json: BENCH_explore.json)
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bitstream/bitmap.h"
#include "circuits/benchmarks.h"
#include "flow/explore.h"
#include "util/json.h"
#include "util/thread_pool.h"

using namespace nanomap;

namespace {

// The thread budget T the sweep is timed at, against --threads 1.
constexpr int kThreads = 4;

// Channel-width variant crossed with every level: strictly wider,
// otherwise identical.
ArchParams widened(const ArchParams& base) {
  ArchParams arch = base;
  arch.len1_tracks = base.len1_tracks + (base.len1_tracks + 1) / 2;
  arch.len4_tracks = base.len4_tracks + (base.len4_tracks + 1) / 2;
  arch.global_tracks = base.global_tracks + (base.global_tracks + 1) / 2;
  return arch;
}

ExploreOptions sweep_options(const CircuitParams& params, bool variants) {
  ExploreOptions eopts;
  for (int lv : {1, 2, 3, 4})
    if (lv <= params.depth_max) eopts.levels.push_back(lv);
  eopts.levels.push_back(0);
  if (variants) {
    FabricVariant v;
    v.label = "wide";
    eopts.variants.push_back(v);  // arch filled per row from the base
  }
  return eopts;
}

// Byte fingerprint of the whole fold: winner, Pareto front, per
// candidate the metrics, flags and serialized bitmap, and the merged
// diagnostic trail — every byte of the explore report except the run's
// own metadata (thread count) and masked timings, which legitimately
// differ between the compared runs.
std::string fold_fingerprint(const ExploreResult& ex) {
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
  add_int(ex.winner_index);
  add_int(static_cast<long long>(ex.explore.pareto.size()));
  for (int idx : ex.explore.pareto) add_int(idx);
  for (const FlowResult& r : ex.results) {
    add_int(r.feasible ? 1 : 0);
    add_int(r.num_les);
    add_int(r.clustered.num_cycles);
    add_double(r.delay_ns);
    std::vector<std::uint8_t> bytes = serialize_bitmap(r.bitmap);
    fp.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }
  add_int(ex.explore.feasible_candidates);
  for (const ExploreCandidateOutcome& o : ex.explore.outcomes) {
    add_int(o.on_pareto_front ? 1 : 0);
    add_int(o.winner ? 1 : 0);
    fp += o.label;
    fp += o.error_kind;
  }
  for (const FlowEvent& e : ex.report.events) {
    fp += e.stage;
    add_int(e.level);
    add_int(e.attempt);
    add_int(static_cast<long long>(e.kind));
    fp += e.action;
    fp += e.detail;
  }
  return fp;
}

ExploreResult run_once(const Design& d, const FlowOptions& base,
                       const ExploreOptions& eopts, int threads) {
  FlowOptions flow = base;
  flow.threads = threads;
  return run_nanomap_explore(d, flow, eopts);
}

template <typename Fn>
double measure_ms(int min_reps, Fn body) {
  double seconds = 0.0;
  int reps = 0;
  while (reps < min_reps || (seconds < 0.2 && reps < 500)) {
    auto t0 = std::chrono::steady_clock::now();
    body();
    auto t1 = std::chrono::steady_clock::now();
    if (reps > 0 || min_reps == 1)
      seconds += std::chrono::duration<double>(t1 - t0).count();
    ++reps;
  }
  const int timed = min_reps == 1 ? reps : reps - 1;
  return timed > 0 ? seconds * 1000.0 / timed : 0.0;
}

struct Row {
  std::string name;
  int candidates = 0;
  int feasible = 0;
  int winner_index = -1;
  std::string winner_label;
  double t1_ms = 0.0;  // --threads 1: candidates inline, one at a time
  double tn_ms = 0.0;  // --threads kThreads: candidates as pool jobs
  bool identical = false;
};

Row measure(const std::string& name, bool variants, bool smoke) {
  Design d = make_benchmark(name);
  const CircuitParams params = extract_circuit_params(d.net);
  FlowOptions base;
  base.arch = ArchParams::paper_instance_unbounded_k();
  ExploreOptions eopts = sweep_options(params, variants);
  for (FabricVariant& v : eopts.variants) v.arch = widened(base.arch);

  Row row;
  row.name = name;
  ExploreResult t1, tn;
  const int reps = smoke ? 1 : 3;
  row.t1_ms = measure_ms(reps, [&] { t1 = run_once(d, base, eopts, 1); });
  row.tn_ms =
      measure_ms(reps, [&] { tn = run_once(d, base, eopts, kThreads); });
  row.identical = fold_fingerprint(t1) == fold_fingerprint(tn);
  row.candidates = t1.explore.candidates;
  row.feasible = t1.explore.feasible_candidates;
  row.winner_index = t1.winner_index;
  if (t1.winner_index >= 0)
    row.winner_label =
        t1.explore.outcomes[static_cast<std::size_t>(t1.winner_index)].label;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string git_describe = "unknown";
  std::string out_path = "BENCH_explore.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else if (arg == "--git-describe" && i + 1 < argc)
      git_describe = argv[++i];
    else
      out_path = arg;
  }

  std::vector<Row> rows;
  rows.push_back(measure("ex1", /*variants=*/true, smoke));
  if (!smoke) {
    rows.push_back(measure("FIR", /*variants=*/true, smoke));
    rows.push_back(measure("ex1", /*variants=*/false, smoke));
  }

  // Emit BENCH_explore.json (schema in docs/FORMATS.md) through the
  // shared JSON writer — same dialect as the --report=json output.
  auto round2 = [](double v) { return std::round(v * 100.0) / 100.0; };
  JsonWriter w;
  w.begin_object();
  w.field("unit", "milliseconds per full explore sweep (lower is better)");
  w.field("threads_1", "--threads 1: candidates inline, one at a time");
  w.field("threads_n", "--threads T: candidates as cold pool jobs");
  w.field("threads", kThreads);
  w.field("smoke", smoke);
  w.field("hardware_threads",
          static_cast<long>(ThreadPool::hardware_threads()));
  w.field("build_type", NANOMAP_BUILD_TYPE);
  w.field("git_describe", git_describe);
  w.key("rows");
  w.begin_array();
  bool all_identical = true;
  for (const Row& r : rows) {
    all_identical = all_identical && r.identical;
    const double speedup = r.tn_ms > 0 ? r.t1_ms / r.tn_ms : 0.0;
    w.begin_object();
    w.field("circuit", r.name);
    w.field("candidates", r.candidates);
    w.field("feasible", r.feasible);
    w.field("winner_index", r.winner_index);
    w.field("winner_label", r.winner_label);
    w.field("threads_1_ms", round2(r.t1_ms));
    w.field("threads_n_ms", round2(r.tn_ms));
    w.field("speedup", round2(speedup));
    w.field("identical_fold", r.identical);
    w.end();
    std::printf(
        "%-6s %2d candidates  winner [%2d] %-10s  threads 1 %8.2f ms  "
        "threads %d %8.2f ms (%4.2fx)  identical %s\n",
        r.name.c_str(), r.candidates, r.winner_index, r.winner_label.c_str(),
        r.t1_ms, kThreads, r.tn_ms, speedup, r.identical ? "yes" : "NO");
  }
  w.end();
  w.end();
  std::ofstream out(out_path);
  out << w.str();
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}
