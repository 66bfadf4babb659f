// Placement quality gate: the seven paper circuits x seeds x three flow
// configurations ({default, no_share, k0}: the CLI's defaults,
// `--no-share` and `--k 0`) through run_nanomap, recording per run the
// #LEs, the post-route delay and the placement cost (`place.cost`), and per
// (config, circuit) the geomean delay and cost with their seed-to-seed
// spread. Written to BENCH_place_quality.json (schema in docs/FORMATS.md)
// under a host header: hardware threads, build type and the `git
// describe` passed in.
//
//   ./build/bench/place_quality [--smoke] [--git-describe D]
//                               [--baseline FILE] [out.json]
//
// Seeds 1-30; --smoke runs ex1 and FIR with seeds 1-3 (CI). --baseline
// compares the runs against an earlier report of this bench; it exits 2
// if the baseline cannot be read or holds no runs, and 1 unless, for
// every (config, circuit) run here:
//   * at least one seed is matched in the baseline, and every matched
//     run has the same feasibility and #LEs;
//   * the mean of ln delay and the mean of ln cost, over the n matched
//     seeds, exceed the baseline's by no more than
//     max(3 * sqrt(s_base^2 / n + s_new^2 / n), kResolution), where s is
//     each side's sample std-dev of ln x over those seeds: three standard
//     errors of the difference of two independent seed-block means.
// Compared on disjoint seed sets of the same code (seeds 1-90), this
// fails 0.3% of cells and 4.5% of whole 30-seed reports.
// An infeasible run also exits 1. Runs are spread over min(4, cores)
// workers, each flow at threads = 1, so every number is thread-invariant.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "circuits/benchmarks.h"
#include "flow/nanomap_flow.h"
#include "util/json.h"
#include "util/thread_pool.h"

using namespace nanomap;

namespace {

// The paper fabric already has k = 16 reconfiguration copies, so the
// third configuration lifts the bound instead (k = 0, unbounded).
const char* const kConfigs[] = {"default", "no_share", "k0"};

struct Run {
  std::string config;
  std::string circuit;
  long seed = 0;
  bool feasible = false;
  long num_les = 0;
  double delay_ns = 0.0;
  double place_cost = 0.0;
};

FlowOptions options_for(const std::string& config, long seed) {
  FlowOptions opts;  // the CLI's defaults: paper fabric, auto level
  opts.seed = static_cast<std::uint64_t>(seed);
  opts.threads = 1;
  if (config == "no_share") opts.planes_share = false;
  if (config == "k0") opts.arch.num_reconf = 0;
  return opts;
}

// Relative floor of the gate's tolerance. Every net weight is >= 1 and
// is rounded to a multiple of 2^-20, so an unchanged placement's cost
// moves by at most 2^-21 relative (ln shift < 1e-6) when the weights are
// re-quantized: a circuit whose every seed finds the same placement
// (spread 0) must not fail on that alone.
constexpr double kResolution = 1e-6;

constexpr long kSeeds = 30;
constexpr long kSmokeSeeds = 3;

// (config, circuit, seed)
using Key = std::tuple<std::string, std::string, long>;

// Sample std-dev of ln x (0 for fewer than two values).
double log_spread(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mean = 0.0;
  for (double x : xs) mean += std::log(x);
  mean /= static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (std::log(x) - mean) * (std::log(x) - mean);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

// Largest tolerated rise of the mean ln x: three standard errors of the
// difference between the two sides' means, floored at kResolution.
double shift_bound(const std::vector<double>& base,
                   const std::vector<double>& now) {
  const double n = static_cast<double>(base.size());
  const double sb = log_spread(base);
  const double sn = log_spread(now);
  return std::max(kResolution, 3.0 * std::sqrt((sb * sb + sn * sn) / n));
}

double geomean(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += std::log(x);
  return xs.empty() ? 0.0 : std::exp(s / static_cast<double>(xs.size()));
}

std::map<Key, Run> load_baseline(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = parse_json(text.str());
  const JsonValue* runs = doc.find("runs");
  std::map<Key, Run> out;
  if (runs == nullptr || !runs->is_array()) return out;
  for (const JsonValue& v : runs->items) {
    auto get = [&v](const char* name) -> const JsonValue& {
      const JsonValue* f = v.find(name);
      if (f == nullptr)
        throw std::runtime_error(std::string("run without \"") + name +
                                 "\"");
      return *f;
    };
    Run r;
    r.config = get("config").string;
    r.circuit = get("circuit").string;
    r.seed = static_cast<long>(get("seed").number);
    r.feasible = get("feasible").boolean;
    r.num_les = static_cast<long>(get("num_les").number);
    r.delay_ns = get("delay_ns").number;
    r.place_cost = get("place_cost").number;
    out[{r.config, r.circuit, r.seed}] = r;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string git_describe = "unknown";
  std::string baseline_path;
  std::string out_path = "BENCH_place_quality.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else if (arg == "--git-describe" && i + 1 < argc)
      git_describe = argv[++i];
    else if (arg == "--baseline" && i + 1 < argc)
      baseline_path = argv[++i];
    else
      out_path = arg;
  }
  const long seeds = smoke ? kSmokeSeeds : kSeeds;

  std::vector<Run> runs;
  for (const char* config : kConfigs) {
    for (const std::string& circuit : benchmark_names()) {
      if (smoke && circuit != "ex1" && circuit != "FIR") continue;
      for (long seed = 1; seed <= seeds; ++seed) {
        Run r;
        r.config = config;
        r.circuit = circuit;
        r.seed = seed;
        runs.push_back(r);
      }
    }
  }
  ThreadPool pool(std::min(4, ThreadPool::hardware_threads()));
  pool_for_each(&pool, static_cast<int>(runs.size()), [&](int i) {
    Run& r = runs[static_cast<std::size_t>(i)];
    const FlowResult res = run_nanomap(make_benchmark(r.circuit),
                                       options_for(r.config, r.seed));
    r.feasible = res.feasible;
    r.num_les = res.num_les;
    r.delay_ns = res.delay_ns;
    r.place_cost = res.placement.cost;
  });

  std::map<Key, Run> baseline;
  if (!baseline_path.empty()) {
    try {
      baseline = load_baseline(baseline_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: baseline %s: %s\n",
                   baseline_path.c_str(), e.what());
      return 2;
    }
    if (baseline.empty()) {
      std::fprintf(stderr, "error: baseline %s holds no runs\n",
                   baseline_path.c_str());
      return 2;
    }
  }

  // Group the runs by (config, circuit), in run order.
  std::vector<std::pair<std::string, std::string>> groups;
  for (const Run& r : runs)
    if (groups.empty() ||
        groups.back() != std::make_pair(r.config, r.circuit))
      groups.emplace_back(r.config, r.circuit);

  bool ok = true;
  std::vector<std::string> failures;
  JsonWriter w;
  w.begin_object();
  w.field("unit", "ns (delay), weighted HPWL (place_cost)");
  w.field("configs", "default = CLI defaults; no_share = --no-share; "
                     "k0 = --k 0");
  w.field("smoke", smoke);
  w.field("seeds", seeds);
  w.field("hardware_threads",
          static_cast<long>(ThreadPool::hardware_threads()));
  w.field("build_type", NANOMAP_BUILD_TYPE);
  w.field("git_describe", git_describe);
  w.key("runs");
  w.begin_array();
  for (const Run& r : runs) {
    ok = ok && r.feasible;
    w.begin_object();
    w.field("config", r.config);
    w.field("circuit", r.circuit);
    w.field("seed", r.seed);
    w.field("feasible", r.feasible);
    w.field("num_les", r.num_les);
    w.field("delay_ns", r.delay_ns);
    w.field("place_cost", r.place_cost);
    w.end();
  }
  w.end();

  w.key("summary");
  w.begin_array();
  for (const auto& [config, circuit] : groups) {
    // All feasible seeds, for the report; and the seeds the baseline also
    // holds, for the gate, so both geomeans cover the same seed set.
    std::vector<double> delay, cost;
    std::vector<double> matched_delay, matched_cost, base_delay, base_cost;
    std::vector<long> les;
    bool les_match = true;
    for (const Run& r : runs) {
      if (r.config != config || r.circuit != circuit || !r.feasible)
        continue;
      les.push_back(r.num_les);
      delay.push_back(r.delay_ns);
      cost.push_back(r.place_cost);
      auto it = baseline.find({config, circuit, r.seed});
      if (it == baseline.end()) continue;
      const Run& b = it->second;
      if (!b.feasible || b.num_les != r.num_les) {
        les_match = false;
        failures.push_back(config + "/" + circuit + " seed " +
                           std::to_string(r.seed) + ": #LEs " +
                           std::to_string(r.num_les) + " vs baseline " +
                           std::to_string(b.num_les));
      }
      matched_delay.push_back(r.delay_ns);
      matched_cost.push_back(r.place_cost);
      base_delay.push_back(b.delay_ns);
      base_cost.push_back(b.place_cost);
    }
    w.begin_object();
    w.field("config", config);
    w.field("circuit", circuit);
    w.key("num_les");
    w.begin_array();
    for (long n : les) w.value(n);
    w.end();
    w.field("delay_ns_geomean", geomean(delay));
    w.field("delay_ns_spread", log_spread(delay));
    w.field("place_cost_geomean", geomean(cost));
    w.field("place_cost_spread", log_spread(cost));
    std::printf("%-8s %-7s les %4ld  delay %8.3f ns (spread %.3f)  cost "
                "%10.3f (spread %.3f)",
                config.c_str(), circuit.c_str(), les.empty() ? 0 : les[0],
                geomean(delay), log_spread(delay), geomean(cost),
                log_spread(cost));
    if (!baseline.empty() && base_delay.empty()) {
      w.field("passed", false);
      failures.push_back(config + "/" + circuit +
                         ": no seed matched in the baseline");
      std::printf("  no baseline seed  FAIL");
    } else if (!base_delay.empty()) {
      // ln(new / baseline) over the matched seeds, against the standard
      // error of that difference.
      const double d_shift =
          std::log(geomean(matched_delay) / geomean(base_delay));
      const double c_shift =
          std::log(geomean(matched_cost) / geomean(base_cost));
      const bool d_ok = d_shift <= shift_bound(base_delay, matched_delay);
      const bool c_ok = c_shift <= shift_bound(base_cost, matched_cost);
      w.field("baseline_delay_ns_geomean", geomean(base_delay));
      w.field("baseline_delay_ns_spread", log_spread(base_delay));
      w.field("baseline_place_cost_geomean", geomean(base_cost));
      w.field("baseline_place_cost_spread", log_spread(base_cost));
      w.field("passed", les_match && d_ok && c_ok);
      if (!d_ok)
        failures.push_back(config + "/" + circuit + ": delay geomean " +
                           std::to_string(geomean(matched_delay)) +
                           " vs baseline " +
                           std::to_string(geomean(base_delay)));
      if (!c_ok)
        failures.push_back(config + "/" + circuit + ": cost geomean " +
                           std::to_string(geomean(matched_cost)) +
                           " vs baseline " +
                           std::to_string(geomean(base_cost)));
      std::printf("  vs baseline delay %+.2f%% cost %+.2f%% %s",
                  100.0 * (std::exp(d_shift) - 1.0),
                  100.0 * (std::exp(c_shift) - 1.0),
                  les_match && d_ok && c_ok ? "ok" : "FAIL");
    }
    std::printf("\n");
    w.end();
  }
  w.end();
  if (!baseline_path.empty()) {
    w.key("gate");
    w.begin_object();
    w.field("baseline", baseline_path);
    w.field("passed", failures.empty());
    w.key("failures");
    w.begin_array();
    for (const std::string& f : failures) w.value(f);
    w.end();
    w.end();
  }
  w.end();
  std::ofstream out(out_path);
  out << w.str();
  for (const std::string& f : failures)
    std::printf("gate failure: %s\n", f.c_str());
  std::printf("wrote %s\n", out_path.c_str());
  return ok && failures.empty() ? 0 : 1;
}
