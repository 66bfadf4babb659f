// Annealer move-throughput tracker: runs the set-keyed incremental-bbox
// annealer and the from-scratch seed reference on the standard circuits,
// each clustered at the folding level the default flow picks (plus
// synthetic high-fanout designs), and writes moves/sec for both to
// BENCH_anneal.json (schema in docs/FORMATS.md), under a host header:
// hardware threads, build type and the `git describe` passed in.
//
//   ./build/bench/anneal_throughput [--smoke] [--git-describe D] [out.json]
//
// --smoke runs three rows (ex1, Paulin, synthetic-fanout8) with a short
// timing window: enough for CI to exercise the identity check.
//
// The reference below is the seed Annealer on the same fixed-point
// objective (placement.h): full O(fanout) bounding-box recompute per
// incident net per move, each net's quantized weight times its hpwl
// summed as int64, plus a heap-allocated sort+unique net list on every
// swap. It makes the exact same RNG draws and accept/reject decisions as
// the incremental kernel, so both engines must land on byte-identical
// placements — checked per circuit and reported in the JSON
// ("identical") — and the ratio of their throughputs is a pure
// like-for-like kernel speedup.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "circuits/benchmarks.h"
#include "core/temporal_cluster.h"
#include "flow/nanomap_flow.h"
#include "place/annealer.h"
#include "util/json.h"
#include "util/thread_pool.h"

using namespace nanomap;

namespace {

// ---- Reference engine: the seed-repo annealer, integer objective. -------
class LegacyAnnealer {
 public:
  LegacyAnnealer(const ClusteredDesign& cd, const Placement& initial,
                 double timing_weight, Rng* rng)
      : cd_(cd), placement_(initial), rng_(rng) {
    smb_at_site_.assign(static_cast<std::size_t>(placement_.grid.sites()),
                        -1);
    for (int m = 0; m < cd.num_smbs; ++m) {
      int site = placement_.site_of_smb[static_cast<std::size_t>(m)];
      smb_at_site_[static_cast<std::size_t>(site)] = m;
    }
    nets_of_.assign(static_cast<std::size_t>(cd.num_smbs), {});
    net_weight_ = quantized_net_weights(cd, timing_weight, placement_.grid);
    for (std::size_t i = 0; i < cd.nets.size(); ++i) {
      const PlacedNet& pn = cd.nets[i];
      nets_of_[static_cast<std::size_t>(pn.driver_smb)].push_back(
          static_cast<int>(i));
      for (int s : pn.sink_smbs)
        nets_of_[static_cast<std::size_t>(s)].push_back(static_cast<int>(i));
    }
    cost_ = 0;
    for (std::size_t i = 0; i < cd_.nets.size(); ++i)
      cost_ += net_cost(static_cast<int>(i));
  }

  void run(double effort) {
    if (cd_.num_smbs <= 1 || cd_.nets.empty()) return;
    const int n = cd_.num_smbs;
    const long moves_per_t = std::max<long>(
        16, static_cast<long>(effort * std::pow(static_cast<double>(n),
                                                4.0 / 3.0)));
    double sum = 0.0, sum2 = 0.0;
    const int samples = std::min(128, 8 * n);
    for (int i = 0; i < samples; ++i) {
      std::int64_t delta = 0;
      try_move(0.0, placement_.grid.width, &delta);
      double d = cost_to_double(delta);
      sum += d;
      sum2 += d * d;
    }
    double mean = sum / samples;
    double var = std::max(0.0, sum2 / samples - mean * mean);
    double t = 20.0 * std::sqrt(var) + 1e-6;  // hot start
    int rlim = std::max(1, placement_.grid.width);
    const double exit_t =
        0.005 * std::max(1.0, cost_to_double(cost_)) /
        static_cast<double>(cd_.nets.size());
    int frozen = 0;
    while (t > exit_t && frozen < 3) {
      long accepted = 0;
      bool changed = false;
      for (long i = 0; i < moves_per_t; ++i) {
        const std::int64_t c0 = cost_;
        if (try_move(t, rlim)) {
          ++accepted;
          changed |= cost_ != c0;
        }
      }
      frozen = changed ? 0 : frozen + 1;
      double rate = static_cast<double>(accepted) /
                    static_cast<double>(moves_per_t);
      if (rate > 0.96) {
        t *= 0.5;
      } else if (rate > 0.8) {
        t *= 0.9;
      } else if (rate > 0.15 && rlim > 1) {
        t *= 0.95;
      } else {
        t *= 0.8;
      }
      double factor = 1.0 - 0.44 + rate;
      rlim = std::clamp(static_cast<int>(std::lround(rlim * factor)), 1,
                        placement_.grid.width);
    }
    for (long i = 0; i < moves_per_t; ++i) try_move(0.0, 1);
  }

  const Placement& placement() const { return placement_; }
  long moves_attempted() const { return moves_attempted_; }

 private:
  std::int64_t net_cost(int net) const {
    const PlacedNet& pn = cd_.nets[static_cast<std::size_t>(net)];
    int xmin = placement_.x_of(pn.driver_smb);
    int xmax = xmin;
    int ymin = placement_.y_of(pn.driver_smb);
    int ymax = ymin;
    for (int s : pn.sink_smbs) {
      xmin = std::min(xmin, placement_.x_of(s));
      xmax = std::max(xmax, placement_.x_of(s));
      ymin = std::min(ymin, placement_.y_of(s));
      ymax = std::max(ymax, placement_.y_of(s));
    }
    return net_weight_[static_cast<std::size_t>(net)] *
           ((xmax - xmin) + (ymax - ymin));
  }

  std::int64_t incident_cost(int smb) const {
    std::int64_t c = 0;
    for (int n : nets_of_[static_cast<std::size_t>(smb)]) c += net_cost(n);
    return c;
  }

  // A dry run stores the delta and rejects without an acceptance draw.
  bool accept(std::int64_t delta, double t, std::int64_t* dry_delta) {
    if (dry_delta != nullptr) {
      *dry_delta = delta;
      return false;
    }
    return delta <= 0 || (t > 0.0 && rng_->next_double() <
                                         std::exp(-cost_to_double(delta) / t));
  }

  bool try_move(double t, int rlim, std::int64_t* dry_delta = nullptr) {
    ++moves_attempted_;
    if (cd_.num_smbs == 0) return false;
    int smb = static_cast<int>(rng_->next_below(
        static_cast<std::uint64_t>(cd_.num_smbs)));
    int from = placement_.site_of_smb[static_cast<std::size_t>(smb)];
    int fx = from % placement_.grid.width;
    int fy = from / placement_.grid.width;
    int tx = std::clamp(fx + rng_->next_int(-rlim, rlim), 0,
                        placement_.grid.width - 1);
    int ty = std::clamp(fy + rng_->next_int(-rlim, rlim), 0,
                        placement_.grid.height - 1);
    int to = ty * placement_.grid.width + tx;
    if (to == from) return false;
    int other = smb_at_site_[static_cast<std::size_t>(to)];

    std::int64_t before = incident_cost(smb);
    if (other >= 0) {
      before = 0;
      std::vector<int> nets = nets_of_[static_cast<std::size_t>(smb)];
      nets.insert(nets.end(),
                  nets_of_[static_cast<std::size_t>(other)].begin(),
                  nets_of_[static_cast<std::size_t>(other)].end());
      std::sort(nets.begin(), nets.end());
      nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
      for (int n : nets) before += net_cost(n);

      placement_.site_of_smb[static_cast<std::size_t>(smb)] = to;
      placement_.site_of_smb[static_cast<std::size_t>(other)] = from;
      smb_at_site_[static_cast<std::size_t>(to)] = smb;
      smb_at_site_[static_cast<std::size_t>(from)] = other;
      std::int64_t after = 0;
      for (int n : nets) after += net_cost(n);
      if (accept(after - before, t, dry_delta)) {
        cost_ += after - before;
        return true;
      }
      placement_.site_of_smb[static_cast<std::size_t>(smb)] = from;
      placement_.site_of_smb[static_cast<std::size_t>(other)] = to;
      smb_at_site_[static_cast<std::size_t>(to)] = other;
      smb_at_site_[static_cast<std::size_t>(from)] = smb;
      return false;
    }

    placement_.site_of_smb[static_cast<std::size_t>(smb)] = to;
    smb_at_site_[static_cast<std::size_t>(to)] = smb;
    smb_at_site_[static_cast<std::size_t>(from)] = -1;
    std::int64_t after = incident_cost(smb);
    if (accept(after - before, t, dry_delta)) {
      cost_ += after - before;
      return true;
    }
    placement_.site_of_smb[static_cast<std::size_t>(smb)] = from;
    smb_at_site_[static_cast<std::size_t>(from)] = smb;
    smb_at_site_[static_cast<std::size_t>(to)] = -1;
    return false;
  }

  const ClusteredDesign& cd_;
  Placement placement_;
  std::vector<int> smb_at_site_;
  std::vector<std::vector<int>> nets_of_;
  std::vector<std::int64_t> net_weight_;
  std::int64_t cost_ = 0;
  Rng* rng_;
  long moves_attempted_ = 0;
};
// ------------------------------------------------------------------------

struct Row {
  std::string name;
  int smbs = 0;
  int nets = 0;
  int smb_sets = 0;
  double avg_fanout = 0.0;
  double legacy_mps = 0.0;
  double incremental_mps = 0.0;
  bool identical = false;
};

Placement initial_for(const ClusteredDesign& cd, std::uint64_t seed) {
  Rng rng(seed);
  Placement p;
  p.grid = size_grid_for(cd.num_smbs);
  std::vector<int> sites(static_cast<std::size_t>(p.grid.sites()));
  for (int i = 0; i < p.grid.sites(); ++i)
    sites[static_cast<std::size_t>(i)] = i;
  rng.shuffle(sites);
  p.site_of_smb.assign(sites.begin(), sites.begin() + cd.num_smbs);
  return p;
}

template <typename Engine>
double measure_mps(const ClusteredDesign& cd, const Placement& init,
                   double effort, double min_seconds,
                   Placement* final_placement) {
  // One warm-up, then timed repeats until min_seconds accumulated.
  double seconds = 0.0;
  long moves = 0;
  int reps = 0;
  while (seconds < min_seconds || reps < 2) {
    Rng rng(7);
    Engine engine(cd, init, 0.8, &rng);
    auto t0 = std::chrono::steady_clock::now();
    engine.run(effort);
    auto t1 = std::chrono::steady_clock::now();
    if (reps > 0) {  // skip the cold-cache rep
      seconds += std::chrono::duration<double>(t1 - t0).count();
      moves += engine.moves_attempted();
    }
    *final_placement = engine.placement();
    ++reps;
    if (reps > 200) break;
  }
  return seconds > 0 ? static_cast<double>(moves) / seconds : 0.0;
}

Row measure(const std::string& name, const ClusteredDesign& cd,
            double effort, double min_seconds) {
  Row row;
  row.name = name;
  row.smbs = cd.num_smbs;
  row.nets = static_cast<int>(cd.nets.size());
  row.smb_sets = count_smb_sets(cd);
  std::size_t pins = 0;
  for (const PlacedNet& pn : cd.nets) pins += pn.sink_smbs.size();
  row.avg_fanout = cd.nets.empty()
                       ? 0.0
                       : static_cast<double>(pins) /
                             static_cast<double>(cd.nets.size());
  Placement init = initial_for(cd, 42);
  Placement legacy_final, incr_final;
  row.legacy_mps = measure_mps<LegacyAnnealer>(cd, init, effort,
                                               min_seconds, &legacy_final);
  row.incremental_mps = measure_mps<Annealer>(cd, init, effort,
                                              min_seconds, &incr_final);
  row.identical = legacy_final.site_of_smb == incr_final.site_of_smb;
  return row;
}

// The clustered design the default flow places: the folding level the
// level search picks, on the paper fabric.
ClusteredDesign cluster_circuit(const std::string& name) {
  FlowResult r = run_nanomap(make_benchmark(name), FlowOptions{});
  return std::move(r.clustered);
}

ClusteredDesign synthetic_fanout(int smbs, int nets, int fanout,
                                 std::uint64_t seed) {
  ClusteredDesign cd;
  cd.num_cycles = 1;
  cd.num_smbs = smbs;
  Rng rng(seed);
  for (int i = 0; i < nets; ++i) {
    PlacedNet pn;
    pn.driver_smb = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(smbs)));
    pn.criticality = rng.next_double();
    std::set<int> sinks;
    while (static_cast<int>(sinks.size()) < fanout) {
      int s = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(smbs)));
      if (s != pn.driver_smb) sinks.insert(s);
    }
    pn.sink_smbs.assign(sinks.begin(), sinks.end());
    cd.nets.push_back(std::move(pn));
  }
  return cd;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string git_describe = "unknown";
  std::string out_path = "BENCH_anneal.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke")
      smoke = true;
    else if (arg == "--git-describe" && i + 1 < argc)
      git_describe = argv[++i];
    else
      out_path = arg;
  }
  const double min_seconds = smoke ? 0.02 : 0.2;
  std::vector<Row> rows;

  // The paper's standard circuits, clustered as the flow clusters them.
  for (const std::string& name : benchmark_names()) {
    if (smoke && name != "ex1" && name != "Paulin") continue;
    rows.push_back(measure(name, cluster_circuit(name), 1.0, min_seconds));
  }

  // Synthetic fanout sweep: every net has its own SMB set, so the set
  // boxes save nothing here over one box per net.
  for (int fanout : {8, 16, 32}) {
    if (smoke && fanout != 8) continue;
    rows.push_back(measure("synthetic-fanout" + std::to_string(fanout),
                           synthetic_fanout(256, 512, fanout, 99), 1.0,
                           min_seconds));
  }

  // Emit BENCH_anneal.json (schema in docs/FORMATS.md) through the shared
  // JSON writer — same escaping and dialect as the --report=json output.
  // Rates round to whole moves/sec, ratios and fanout to two decimals.
  auto round2 = [](double v) { return std::round(v * 100.0) / 100.0; };
  JsonWriter w;
  w.begin_object();
  w.field("unit", "moves/sec");
  w.field("legacy",
          "seed annealer on the fixed-point objective, O(fanout) bbox "
          "recompute per incident net per move");
  w.field("incremental",
          "one cached bbox and one int64 weight per distinct SMB set "
          "(net_bbox.h, annealer.h)");
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
    w.begin_object();
    w.field("circuit", r.name);
    w.field("smbs", r.smbs);
    w.field("nets", r.nets);
    w.field("smb_sets", r.smb_sets);
    w.field("avg_fanout", round2(r.avg_fanout));
    w.field("legacy_moves_per_sec", std::round(r.legacy_mps));
    w.field("incremental_moves_per_sec", std::round(r.incremental_mps));
    w.field("speedup",
            round2(r.legacy_mps > 0 ? r.incremental_mps / r.legacy_mps
                                    : 0.0));
    w.field("identical_placement", r.identical);
    w.end();
    std::printf("%-22s smbs %4d nets %4d sets %4d fanout %5.2f  legacy "
                "%10.0f  incremental %10.0f  speedup %5.2fx  identical %s\n",
                r.name.c_str(), r.smbs, r.nets, r.smb_sets, r.avg_fanout,
                r.legacy_mps,
                r.incremental_mps,
                r.legacy_mps > 0 ? r.incremental_mps / r.legacy_mps : 0.0,
                r.identical ? "yes" : "NO");
  }
  w.end();
  w.end();
  std::ofstream out(out_path);
  out << w.str();
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}
