// PathFinder kernel. Byte-identical to the reference router (the seed
// router plus the stall rule, pathfinder_reference.cc); it differs only
// in where the work runs: sink orders are sorted in a serial pre-pass,
// folding cycles negotiate concurrently on a pool, and the fault and
// trace hooks run on the calling thread in cycle order (DESIGN.md §5g).
#include "route/pathfinder.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <iterator>
#include <limits>
#include <queue>
#include <sstream>

#include "util/fault.h"
#include "util/log.h"
#include "util/thread_pool.h"
#include "util/trace.h"

#ifdef NANOMAP_AUDIT_ROUTE
#include "route/pathfinder_reference.h"
#endif

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

// Scratch for one A* wavefront, left fully reset after every net search
// so one instance serves a whole folding cycle.
struct SearchState {
  std::vector<int> parent;
  std::vector<double> best_cost;
  std::vector<double> delay_at;
  std::vector<char> in_tree;
  std::vector<int> touched;  // nodes the current sink search relaxed

  explicit SearchState(int nodes)
      : parent(static_cast<std::size_t>(nodes), -1),
        best_cost(static_cast<std::size_t>(nodes),
                  std::numeric_limits<double>::infinity()),
        delay_at(static_cast<std::size_t>(nodes), 0.0),
        in_tree(static_cast<std::size_t>(nodes), 0) {}
};

// Sink SMBs of one net ordered farthest-from-driver first (classic
// heuristic), ties by SMB index — a pure function of the placement, so
// it is computed once per net per route_design call.
std::vector<int> sinks_farthest_first(const ClusteredDesign& cd,
                                      const Placement& placement,
                                      int net_index) {
  const PlacedNet& pn = cd.nets[static_cast<std::size_t>(net_index)];
  const int sx = placement.x_of(pn.driver_smb);
  const int sy = placement.y_of(pn.driver_smb);
  std::vector<int> sinks = pn.sink_smbs;
  std::sort(sinks.begin(), sinks.end(), [&](int a, int b) {
    int da = std::abs(placement.x_of(a) - sx) +
             std::abs(placement.y_of(a) - sy);
    int db = std::abs(placement.x_of(b) - sx) +
             std::abs(placement.y_of(b) - sy);
    if (da != db) return da > db;
    return a < b;
  });
  return sinks;
}

// One negotiated folding cycle's outputs: the slot its pool task writes
// and nothing else reads until the fold. Trace observations are derived
// from it (every started iteration searches every net) so every
// NM_TRACE_* site runs on the calling thread, in cycle order. On an
// exception the slot keeps the iterations started, which the fold emits
// before rethrowing.
struct CycleOutcome {
  std::vector<NetRoute> routes;  // cycle-net order
  int iterations = 0;
  long overused = 0;
  int iterations_started = 0;  // route.rip_ups_per_iter observations owed
  std::exception_ptr error;
};

class CycleRouter {
 public:
  CycleRouter(const ClusteredDesign& cd, const Placement& placement,
              const RrGraph& rr, const RouterOptions& options)
      : cd_(cd), placement_(placement), rr_(rr), options_(options) {
    occ_.assign(static_cast<std::size_t>(rr.size()), 0);
    hist_.assign(static_cast<std::size_t>(rr.size()), 0.0);
  }

  // Routes all nets of one folding cycle into `out` (everything but
  // `error`).
  //
  // Classical sequential PathFinder negotiation: each iteration rips up
  // and reroutes every net in net order against the occupancy the nets
  // before it just committed, then bumps history on overused nodes. It
  // stops on zero overuse, on the iteration budget, or once kStallWindow
  // iterations passed without a new strict minimum of the overuse.
  void route_cycle(const std::vector<int>& net_indices,
                   const std::vector<std::vector<int>>& sorted_sinks,
                   CycleOutcome* out) {
    std::vector<std::vector<int>> trees(net_indices.size());
    std::vector<NetRoute> routes(net_indices.size());
    SearchState ss(rr_.size());

    double pres_fac = options_.initial_pres_fac;
    long overused = 0;
    long best = std::numeric_limits<long>::max();
    int best_iter = 0;  // iteration that set `best`
    int iter = 0;
    for (iter = 1; iter <= options_.max_iterations; ++iter) {
      ++out->iterations_started;
      for (std::size_t ni = 0; ni < net_indices.size(); ++ni) {
        for (int n : trees[ni]) --occ_[static_cast<std::size_t>(n)];
        routes[ni] = route_net(net_indices[ni], sorted_sinks[ni], pres_fac,
                               &trees[ni], &ss);
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
      if (overused < best) {
        best = overused;
        best_iter = iter;
      } else if (iter - best_iter >= kStallWindow) {
        break;  // stalled: the fold counts it (overused, budget left)
      }
      pres_fac *= options_.pres_fac_mult;
    }
    out->iterations = std::min(iter, options_.max_iterations);
    out->overused = overused;
    out->routes = std::move(routes);
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
      auto relax = [&](int n, double cost, int par) {
        if (cost >= ss->best_cost[static_cast<std::size_t>(n)]) return;
        if (ss->best_cost[static_cast<std::size_t>(n)] ==
            std::numeric_limits<double>::infinity())
          ss->touched.push_back(n);
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
        // Stale-entry check with a *relative* epsilon: `prio - est` only
        // reproduces the push-time g within ~ulp(prio), which at extreme
        // congestion (pres_fac ~1e15, costs ~1e18) is hundreds of units —
        // an absolute 1e-12 slack then discards fresh entries and starves
        // the wavefront (false "sink unreachable"). Scaling the slack by
        // the cost keeps every fresh entry alive; borderline-stale entries
        // that slip through re-relax against the already-improved
        // best_cost and change nothing.
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
      for (int n : ss->touched) {
        ss->best_cost[static_cast<std::size_t>(n)] =
            std::numeric_limits<double>::infinity();
        ss->parent[static_cast<std::size_t>(n)] = -1;
      }
      ss->touched.clear();
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

// One folding cycle as the pre-pass sees it.
struct CyclePlan {
  std::vector<int> nets;  // indices into cd.nets, ascending
  std::vector<std::vector<int>> sorted_sinks;  // farthest-first, per net
  long sinks = 0;  // total sink count: the dispatch weight
};

#ifdef NANOMAP_AUDIT_ROUTE
void audit_against_reference(const RoutingResult& got,
                             const RoutingResult& want) {
  NM_CHECK_MSG(got.success == want.success &&
                   got.worst_iterations == want.worst_iterations &&
                   got.overused_nodes == want.overused_nodes &&
                   got.nets.size() == want.nets.size(),
               "route audit: result summary diverged from reference");
  for (std::size_t i = 0; i < got.nets.size(); ++i) {
    const NetRoute& a = got.nets[i];
    const NetRoute& b = want.nets[i];
    NM_CHECK_MSG(a.net_index == b.net_index &&
                     a.sink_smbs == b.sink_smbs &&
                     a.sink_delay_ps == b.sink_delay_ps &&
                     a.wire_nodes == b.wire_nodes,
                 "route audit: net " << a.net_index
                                     << " diverged from reference");
  }
}
#endif

}  // namespace

RoutingResult route_design(const ClusteredDesign& cd,
                           const Placement& placement, const RrGraph& rr,
                           const RouterOptions& options, ThreadPool* pool) {
  NM_FAULT_POINT("route.converge");
  NM_TRACE_COUNT("route.calls", 1);
  RoutingResult result;
  std::vector<CyclePlan> plans(static_cast<std::size_t>(cd.num_cycles));
  for (std::size_t i = 0; i < cd.nets.size(); ++i)
    plans[static_cast<std::size_t>(cd.nets[i].cycle)].nets.push_back(
        static_cast<int>(i));

  // Phase 1, serial in cycle order: sink orders and the dispatch list.
  std::vector<int> tasks;  // non-empty cycles, ascending
  for (int c = 0; c < cd.num_cycles; ++c) {
    // Per-cycle router state allocation (the pre-pass is sequential, so
    // hit N is folding cycle N regardless of thread count).
    NM_FAULT_POINT("route.alloc");
    CyclePlan& plan = plans[static_cast<std::size_t>(c)];
    plan.sorted_sinks.resize(plan.nets.size());
    for (std::size_t j = 0; j < plan.nets.size(); ++j) {
      plan.sorted_sinks[j] = sinks_farthest_first(cd, placement, plan.nets[j]);
      plan.sinks += static_cast<long>(plan.sorted_sinks[j].size());
    }
    if (!plan.nets.empty()) tasks.push_back(c);
  }

  // Phase 2: negotiate every non-empty cycle, each on its own CycleRouter
  // writing only its own slot. Heaviest first, so a dominant cycle does
  // not start last; the order never reaches the result.
  std::vector<CycleOutcome> outcomes(tasks.size());
  std::vector<std::size_t> order(tasks.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return plans[static_cast<std::size_t>(tasks[a])].sinks >
                            plans[static_cast<std::size_t>(tasks[b])].sinks;
                   });
  pool_for_each(
      tasks.size() > 1 ? pool : nullptr, static_cast<int>(tasks.size()),
      [&](int k) {
        const std::size_t slot = order[static_cast<std::size_t>(k)];
        const CyclePlan& plan = plans[static_cast<std::size_t>(tasks[slot])];
        CycleOutcome& out = outcomes[slot];
        try {
          CycleRouter router(cd, placement, rr, options);
          router.route_cycle(plan.nets, plan.sorted_sinks, &out);
        } catch (...) {
          out.error = std::current_exception();
        }
      });

  // Phase 3, serial in cycle order: emit and trace.
  NM_TRACE_VALUE("route.cycle_tasks", tasks.size());
  long stalled_cycles = 0;
  std::size_t next_slot = 0;
  for (const CyclePlan& plan : plans) {
    // An empty cycle converges in PathFinder's first iteration.
    int iters = std::min(1, options.max_iterations);
    long overused = 0;
    const std::size_t nets_before = result.nets.size();
    if (!plan.nets.empty()) {
      CycleOutcome& out = outcomes[next_slot++];
      for (int i = 0; i < out.iterations_started; ++i)
        NM_TRACE_VALUE("route.rip_ups_per_iter", plan.nets.size());
      if (out.iterations_started > 0)
        NM_TRACE_COUNT("route.reroutes",
                       static_cast<long>(plan.nets.size()) *
                           out.iterations_started);
      if (out.error) std::rethrow_exception(out.error);
      iters = out.iterations;
      overused = out.overused;
      // Only the stall rule ends a failing cycle with budget left.
      if (overused > 0 && iters < options.max_iterations) ++stalled_cycles;
      std::move(out.routes.begin(), out.routes.end(),
                std::back_inserter(result.nets));
    }
    result.worst_iterations = std::max(result.worst_iterations, iters);
    result.overused_nodes += overused;
    if (overused > 0) result.success = false;
    if (Trace::enabled()) {
      long wire_nodes = 0;
      for (std::size_t i = nets_before; i < result.nets.size(); ++i)
        wire_nodes += static_cast<long>(result.nets[i].wire_nodes.size());
      NM_TRACE_VALUE("route.iterations_per_cycle", iters);
      NM_TRACE_VALUE("route.overuse_per_cycle", overused);
      NM_TRACE_VALUE("route.wire_nodes_per_cycle", wire_nodes);
    }
  }

  // Recorded only when nonzero, so reports of runs where every cycle
  // converges keep their bytes.
  if (stalled_cycles > 0)
    NM_TRACE_COUNT("route.stalled_cycles", stalled_cycles);

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
  if (rr.arch().defects.active() && result.success && Trace::enabled()) {
    // A converged route has occ <= capacity everywhere, so every
    // fully-broken channel (capacity 0) the fabric carries was steered
    // around. Result-derived, hence deterministic at any thread count.
    long avoided = 0;
    for (int n = 0; n < rr.size(); ++n) {
      const RrNode& node = rr.node(n);
      if (node.capacity == 0 && node.type != RrType::kOpin &&
          node.type != RrType::kIpin)
        ++avoided;
    }
    NM_TRACE_COUNT("route.defect_avoided", avoided);
  }
  NM_LOG(kDebug) << "routing: " << result.nets.size() << " nets, usage d/1/4/g "
                 << result.usage.direct << "/" << result.usage.len1 << "/"
                 << result.usage.len4 << "/" << result.usage.global
                 << (result.success ? "" : " [OVERUSED]");
#ifdef NANOMAP_AUDIT_ROUTE
  // Bit-exact cross-check against the seed router on every call, plus a
  // structural replay through
  // validate_routing, which re-walks every emitted tree from the driver
  // and re-checks per-cycle occupancy.
  audit_against_reference(result,
                          route_nets_reference(cd, placement, rr, options));
  {
    std::string why;
    NM_CHECK_MSG(validate_routing(cd, placement, rr, result, &why),
                 "route audit: " << why);
  }
#endif
  return result;
}

bool validate_routing(const ClusteredDesign& cd, const Placement& placement,
                      const RrGraph& rr, const RoutingResult& result,
                      std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  std::vector<int> seen(cd.nets.size(), 0);
  for (const NetRoute& nr : result.nets) {
    if (nr.net_index < 0 ||
        nr.net_index >= static_cast<int>(cd.nets.size()))
      return fail("net_index out of range");
    ++seen[static_cast<std::size_t>(nr.net_index)];
  }
  for (std::size_t i = 0; i < seen.size(); ++i)
    if (seen[i] != 1) {
      std::ostringstream os;
      os << "net " << i << " routed " << seen[i] << " times";
      return fail(os.str());
    }

  // Per-cycle occupancy over full trees (wires + pins).
  std::vector<std::vector<int>> occ(
      static_cast<std::size_t>(cd.num_cycles),
      std::vector<int>(static_cast<std::size_t>(rr.size()), 0));

  // Membership / visited maps versioned per net to avoid re-allocation.
  std::vector<int> member(static_cast<std::size_t>(rr.size()), -1);
  std::vector<int> visited(static_cast<std::size_t>(rr.size()), -1);
  int version = 0;

  for (const NetRoute& nr : result.nets) {
    const PlacedNet& pn = cd.nets[static_cast<std::size_t>(nr.net_index)];
    std::ostringstream tag;
    tag << "net " << nr.net_index << ": ";

    std::vector<int> want_sinks = pn.sink_smbs;
    std::vector<int> got_sinks = nr.sink_smbs;
    std::sort(want_sinks.begin(), want_sinks.end());
    std::sort(got_sinks.begin(), got_sinks.end());
    if (want_sinks != got_sinks)
      return fail(tag.str() + "sink set does not match the design");
    if (nr.sink_delay_ps.size() != nr.sink_smbs.size())
      return fail(tag.str() + "sink delay count mismatch");

    ++version;
    std::vector<int> tree;
    tree.push_back(rr.opin(placement.x_of(pn.driver_smb),
                           placement.y_of(pn.driver_smb)));
    for (int s : pn.sink_smbs)
      tree.push_back(rr.ipin(placement.x_of(s), placement.y_of(s)));
    for (int n : nr.wire_nodes) {
      if (n < 0 || n >= rr.size())
        return fail(tag.str() + "wire node out of range");
      RrType t = rr.node(n).type;
      if (t == RrType::kOpin || t == RrType::kIpin)
        return fail(tag.str() + "pin listed as wire node");
      tree.push_back(n);
    }
    for (int n : tree) {
      if (member[static_cast<std::size_t>(n)] == version)
        return fail(tag.str() + "duplicate node " + rr.describe(n));
      member[static_cast<std::size_t>(n)] = version;
      ++occ[static_cast<std::size_t>(pn.cycle)]
           [static_cast<std::size_t>(n)];
    }

    // BFS over the induced subgraph from the driver OPIN: every tree node
    // (no orphaned occupancy) and every sink IPIN must be reached.
    std::queue<int> q;
    q.push(tree[0]);
    visited[static_cast<std::size_t>(tree[0])] = version;
    int reached = 1;
    while (!q.empty()) {
      int v = q.front();
      q.pop();
      for (int e : rr.node(v).edges) {
        if (member[static_cast<std::size_t>(e)] != version ||
            visited[static_cast<std::size_t>(e)] == version)
          continue;
        visited[static_cast<std::size_t>(e)] = version;
        ++reached;
        q.push(e);
      }
    }
    if (reached != static_cast<int>(tree.size()))
      return fail(tag.str() + "route tree is not connected to the driver");
    for (int s : pn.sink_smbs) {
      int ip = rr.ipin(placement.x_of(s), placement.y_of(s));
      if (visited[static_cast<std::size_t>(ip)] != version)
        return fail(tag.str() + "sink unreachable inside the route tree");
    }
  }

  if (result.success) {
    for (int c = 0; c < cd.num_cycles; ++c)
      for (int n = 0; n < rr.size(); ++n)
        if (occ[static_cast<std::size_t>(c)][static_cast<std::size_t>(n)] >
            rr.node(n).capacity) {
          std::ostringstream os;
          os << "cycle " << c << ": " << rr.describe(n)
             << " over capacity despite success";
          return fail(os.str());
        }
  }
  if (why) why->clear();
  return true;
}

}  // namespace nanomap
