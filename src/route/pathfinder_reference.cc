// Seed router (see pathfinder_reference.h). The deliberate
// differences from the seed file: the entry point is named
// route_nets_reference; route_cycle stops a cycle whose overuse stalls
// for kStallWindow iterations, the rule the kernel applies (DESIGN.md
// §5g); the relative-epsilon staleness guard replaces the seed's
// absolute one; the NM_FAULT_POINT / NM_TRACE_* hooks were
// dropped so differential harnesses can call the reference next to the
// live router without double-counting fault hits or trace counters; the
// rip-up batch loop, which served a since-removed batch-size option,
// collapsed to its batch-size-1 form, the sequential loop; and the
// removed timing_driven / astar_weight / delay_norm_ps options became
// constants at the values every caller used (on, 1, 300 ps).
#include "route/pathfinder_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>

#include "util/log.h"
#include "util/rng.h"

namespace nanomap {
namespace {

// Timing-driven cost blend (VPR-style): a net of criticality c pays
// (1-c)*base_cost + c*delay/kDelayNormPs per node.
constexpr double kDelayNormPs = 300.0;

struct QueueEntry {
  double cost;  // g + est: the A* priority
  double est;   // heuristic at push time, carried so the pop-side
                // staleness check needs no recompute (cost - est == g,
                // bit-identical to re-deriving est from the node coords)
  int node;
  bool operator>(const QueueEntry& other) const { return cost > other.cost; }
};

// Per-route scratch for one A* wavefront, left fully reset after every
// net search.
struct SearchState {
  std::vector<int> parent;
  std::vector<double> best_cost;
  std::vector<double> delay_at;
  std::vector<char> in_tree;

  explicit SearchState(int nodes)
      : parent(static_cast<std::size_t>(nodes), -1),
        best_cost(static_cast<std::size_t>(nodes),
                  std::numeric_limits<double>::infinity()),
        delay_at(static_cast<std::size_t>(nodes), 0.0),
        in_tree(static_cast<std::size_t>(nodes), 0) {}
};

class ReferenceCycleRouter {
 public:
  ReferenceCycleRouter(const ClusteredDesign& cd, const Placement& placement,
                       const RrGraph& rr, const RouterOptions& options)
      : cd_(cd), placement_(placement), rr_(rr), options_(options) {
    occ_.assign(static_cast<std::size_t>(rr.size()), 0);
    hist_.assign(static_cast<std::size_t>(rr.size()), 0.0);
  }

  // Routes all nets of one folding cycle; returns residual overuse count.
  // Classical sequential PathFinder negotiation: every iteration rips up
  // and reroutes each net in net order, committing its occupancy before
  // the next net searches, until no node is overused, the budget is
  // spent or the overuse stalls.
  long route_cycle(const std::vector<int>& net_indices,
                   std::vector<NetRoute>* out, int* iterations_used) {
    std::vector<std::vector<int>> trees(net_indices.size());
    std::vector<NetRoute> routes(net_indices.size());
    // Sink order (farthest-first) depends only on the fixed placement, so
    // sort once per net here instead of on every rip-up/reroute iteration
    // inside route_net. Identical order, identical routing.
    std::vector<std::vector<int>> sorted_sinks(net_indices.size());
    for (std::size_t ni = 0; ni < net_indices.size(); ++ni)
      sorted_sinks[ni] = sinks_farthest_first(net_indices[ni]);
    std::unique_ptr<SearchState> state;

    double pres_fac = options_.initial_pres_fac;
    long overused = 0;
    long best = std::numeric_limits<long>::max();
    int best_iter = 0;
    int iter = 0;
    for (iter = 1; iter <= options_.max_iterations; ++iter) {
      // Every iteration rips up and reroutes all nets.
      for (std::size_t ni = 0; ni < net_indices.size(); ++ni) {
        rip_up(trees[ni]);
        if (!state) state = std::make_unique<SearchState>(rr_.size());
        routes[ni] = route_net(net_indices[ni], sorted_sinks[ni], pres_fac,
                               &trees[ni], state.get());
        for (int n : trees[ni]) ++occ_[static_cast<std::size_t>(n)];
      }
      overused = 0;
      for (int n = 0; n < rr_.size(); ++n) {
        int over = occ_[static_cast<std::size_t>(n)] -
                   rr_.node(n).capacity;
        if (over > 0) {
          ++overused;
          hist_[static_cast<std::size_t>(n)] += options_.hist_fac * over;
        }
      }
      if (overused == 0) break;
      // The stall rule, added after the seed (kStallWindow).
      if (overused < best) {
        best = overused;
        best_iter = iter;
      } else if (iter - best_iter >= kStallWindow) {
        break;
      }
      pres_fac *= options_.pres_fac_mult;
    }
    *iterations_used = std::min(iter, options_.max_iterations);
    out->insert(out->end(), routes.begin(), routes.end());
    return overused;
  }

 private:
  // Congestion cost blended with the node's delay for critical nets
  // (timing-driven routing). The present/history congestion terms always
  // apply so legality is never traded away.
  double node_cost(int n, double pres_fac, double crit) const {
    const RrNode& node = rr_.node(n);
    int over = occ_[static_cast<std::size_t>(n)] + 1 - node.capacity;
    double pres = over > 0 ? 1.0 + pres_fac * over : 1.0;
    double base = (1.0 - crit) * node.base_cost +
                  crit * (node.delay_ps / kDelayNormPs);
    return (base + hist_[static_cast<std::size_t>(n)]) * pres;
  }

  void rip_up(std::vector<int>& tree) {
    for (int n : tree) --occ_[static_cast<std::size_t>(n)];
    tree.clear();
  }

  // Sink SMBs of one net ordered farthest-from-driver first (classic
  // heuristic), ties by SMB index — a pure function of the placement, so
  // route_cycle computes it once per net, not per PathFinder iteration.
  std::vector<int> sinks_farthest_first(int net_index) const {
    const PlacedNet& pn = cd_.nets[static_cast<std::size_t>(net_index)];
    const int sx = placement_.x_of(pn.driver_smb);
    const int sy = placement_.y_of(pn.driver_smb);
    std::vector<int> sinks = pn.sink_smbs;
    std::sort(sinks.begin(), sinks.end(), [&](int a, int b) {
      int da = std::abs(placement_.x_of(a) - sx) +
               std::abs(placement_.y_of(a) - sy);
      int db = std::abs(placement_.x_of(b) - sx) +
               std::abs(placement_.y_of(b) - sy);
      if (da != db) return da > db;
      return a < b;
    });
    return sinks;
  }

  // Routes one net against the current occupancy/history snapshot. Reads
  // occ_/hist_ only; all mutable search state lives in `ss`, which is
  // left fully reset on return. The caller commits the returned tree's
  // occupancy.
  NetRoute route_net(int net_index, const std::vector<int>& sinks,
                     double pres_fac, std::vector<int>* tree,
                     SearchState* ss) const {
    const PlacedNet& pn = cd_.nets[static_cast<std::size_t>(net_index)];
    const double crit = pn.criticality;
    NetRoute route;
    route.net_index = net_index;

    const int sx = placement_.x_of(pn.driver_smb);
    const int sy = placement_.y_of(pn.driver_smb);
    const int source = rr_.opin(sx, sy);

    std::vector<int> tree_nodes{source};
    ss->delay_at[static_cast<std::size_t>(source)] = 0.0;

    for (int sink_smb : sinks) {
      const int tx = placement_.x_of(sink_smb);
      const int ty = placement_.y_of(sink_smb);
      const int target = rr_.ipin(tx, ty);

      // A* from the current tree to the sink IPIN.
      std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                          std::greater<QueueEntry>>
          pq;
      std::vector<int> touched;
      auto relax = [&](int n, double cost, int par) {
        if (cost >= ss->best_cost[static_cast<std::size_t>(n)]) return;
        if (ss->best_cost[static_cast<std::size_t>(n)] ==
            std::numeric_limits<double>::infinity())
          touched.push_back(n);
        ss->best_cost[static_cast<std::size_t>(n)] = cost;
        ss->parent[static_cast<std::size_t>(n)] = par;
        const RrNode& node = rr_.node(n);
        double est = std::abs(node.x - tx) + std::abs(node.y - ty);
        pq.push({cost + est, est, n});
      };
      for (int n : tree_nodes) relax(n, 0.0, -1);

      int found = -1;
      while (!pq.empty()) {
        auto [prio, est, n] = pq.top();
        pq.pop();
        const RrNode& node = rr_.node(n);
        // Relative-epsilon staleness guard; the one deliberate fix over
        // the seed file (the absolute 1e-12 slack starved the queue at
        // extreme pres_fac — see the comment in pathfinder.cc).
        const double g = ss->best_cost[static_cast<std::size_t>(n)];
        if (prio - est > g + 1e-12 * std::max(1.0, g))
          continue;  // stale entry
        if (n == target) {
          found = n;
          break;
        }
        for (int next : node.edges) {
          relax(next,
                ss->best_cost[static_cast<std::size_t>(n)] +
                    node_cost(next, pres_fac, crit),
                n);
        }
      }
      NM_CHECK_MSG(found >= 0, "router: sink unreachable at ("
                                   << tx << "," << ty << ")");

      // Walk back to the tree, appending new nodes.
      std::vector<int> path;
      for (int n = found;
           n != -1 && !ss->in_tree[static_cast<std::size_t>(n)];
           n = ss->parent[static_cast<std::size_t>(n)]) {
        path.push_back(n);
        if (ss->parent[static_cast<std::size_t>(n)] == -1) break;
      }
      // parent chain stops at a node already in the tree (or the seed with
      // parent -1, which is in tree_nodes).
      int join = ss->parent[static_cast<std::size_t>(path.back())];
      double base_delay =
          join >= 0 ? ss->delay_at[static_cast<std::size_t>(join)] : 0.0;
      if (!ss->in_tree[static_cast<std::size_t>(path.back())] && join < 0) {
        // Seed node itself: delay_at already set.
        base_delay = 0.0;
      }
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        base_delay += rr_.node(*it).delay_ps;
        ss->delay_at[static_cast<std::size_t>(*it)] = base_delay;
        tree_nodes.push_back(*it);
        ss->in_tree[static_cast<std::size_t>(*it)] = 1;
      }

      route.sink_smbs.push_back(sink_smb);
      route.sink_delay_ps.push_back(
          ss->delay_at[static_cast<std::size_t>(target)]);

      // Reset search state.
      for (int n : touched) {
        ss->best_cost[static_cast<std::size_t>(n)] =
            std::numeric_limits<double>::infinity();
        ss->parent[static_cast<std::size_t>(n)] = -1;
      }
      // Seeds were marked in_tree only after path walk; mark all.
      for (int n : tree_nodes) ss->in_tree[static_cast<std::size_t>(n)] = 1;
    }

    // Hand the deduplicated tree to the caller (occupancy is committed
    // there) and scrub the in_tree flags for the next search.
    std::sort(tree_nodes.begin(), tree_nodes.end());
    tree_nodes.erase(std::unique(tree_nodes.begin(), tree_nodes.end()),
                     tree_nodes.end());
    for (int n : tree_nodes) {
      ss->in_tree[static_cast<std::size_t>(n)] = 0;
      RrType t = rr_.node(n).type;
      if (t != RrType::kOpin && t != RrType::kIpin)
        route.wire_nodes.push_back(n);
    }
    *tree = tree_nodes;
    return route;
  }

  const ClusteredDesign& cd_;
  const Placement& placement_;
  const RrGraph& rr_;
  const RouterOptions& options_;

  std::vector<int> occ_;
  std::vector<double> hist_;
};

}  // namespace

RoutingResult route_nets_reference(const ClusteredDesign& cd,
                                   const Placement& placement,
                                   const RrGraph& rr,
                                   const RouterOptions& options) {
  RoutingResult result;
  std::vector<std::vector<int>> per_cycle(
      static_cast<std::size_t>(cd.num_cycles));
  for (std::size_t i = 0; i < cd.nets.size(); ++i)
    per_cycle[static_cast<std::size_t>(cd.nets[i].cycle)].push_back(
        static_cast<int>(i));

  for (int c = 0; c < cd.num_cycles; ++c) {
    ReferenceCycleRouter router(cd, placement, rr, options);
    int iters = 0;
    long overused =
        router.route_cycle(per_cycle[static_cast<std::size_t>(c)],
                           &result.nets, &iters);
    result.worst_iterations = std::max(result.worst_iterations, iters);
    result.overused_nodes += overused;
    if (overused > 0) result.success = false;
  }

  for (const NetRoute& nr : result.nets) {
    for (int n : nr.wire_nodes) {
      switch (rr.node(n).type) {
        case RrType::kDirect: ++result.usage.direct; break;
        case RrType::kLen1: ++result.usage.len1; break;
        case RrType::kLen4: ++result.usage.len4; break;
        case RrType::kGlobal: ++result.usage.global; break;
        default: break;
      }
    }
  }
  NM_LOG(kDebug) << "routing(ref): " << result.nets.size()
                 << " nets, usage d/1/4/g " << result.usage.direct << "/"
                 << result.usage.len1 << "/" << result.usage.len4 << "/"
                 << result.usage.global
                 << (result.success ? "" : " [OVERUSED]");
  return result;
}

}  // namespace nanomap
