#include "map/flowmap.h"

#include <algorithm>
#include <utility>

namespace nanomap {
namespace {

// Max-flow network with unit node capacities over one labelling cone.
// flowmap() keeps one as an arena: reset() empties it for the next cone
// without giving back its storage, and every search marks the vertices it
// visits with a fresh stamp instead of clearing a per-search vector.
class FlowGraph {
 public:
  void reset(int num_vertices) {
    const std::size_t n = static_cast<std::size_t>(num_vertices);
    head_.assign(n, -1);
    if (mark_.size() < n) {
      mark_.resize(n, 0);
      next_edge_.resize(n, -1);
    }
    edges_.clear();
  }

  void add_edge(int from, int to, int capacity) {
    add_half_edge(from, to, capacity);
    add_half_edge(to, from, 0);
  }

  // Augments one unit at a time along depth-first paths, stopping once
  // flow exceeds `limit`. Returns the achieved flow (limit+1 on abort).
  // The order in which paths are found cannot change the minimum cut
  // read below: the residual-reachable set is the same for every maximum
  // flow.
  int max_flow_up_to(int source, int sink, int limit) {
    int flow = 0;
    while (flow <= limit) {
      if (!dfs_augment(source, sink)) break;
      ++flow;
    }
    return flow;
  }

  // After max_flow_up_to returned at most its limit, the last search
  // failed having visited exactly the vertices reachable from the source
  // in the residual graph: the source side of the minimum cut.
  bool on_source_side(int v) const { return marked(v); }

 private:
  struct Edge {
    int to = 0;
    int capacity = 0;
    int next = -1;
  };

  void add_half_edge(int from, int to, int capacity) {
    Edge e;
    e.to = to;
    e.capacity = capacity;
    e.next = head_[static_cast<std::size_t>(from)];
    head_[static_cast<std::size_t>(from)] = static_cast<int>(edges_.size());
    edges_.push_back(e);
  }

  bool marked(int v) const {
    return mark_[static_cast<std::size_t>(v)] == stamp_;
  }

  void visit(int v) {
    const std::size_t vi = static_cast<std::size_t>(v);
    mark_[vi] = stamp_;
    next_edge_[vi] = head_[vi];
  }

  // Iterative DFS for one augmenting path; path_ holds its edges.
  bool dfs_augment(int source, int sink) {
    ++stamp_;
    path_.clear();
    visit(source);
    int v = source;
    while (v != sink) {
      int& e = next_edge_[static_cast<std::size_t>(v)];
      while (e != -1 &&
             (edges_[static_cast<std::size_t>(e)].capacity <= 0 ||
              marked(edges_[static_cast<std::size_t>(e)].to)))
        e = edges_[static_cast<std::size_t>(e)].next;
      if (e == -1) {
        if (path_.empty()) return false;
        v = edges_[static_cast<std::size_t>(path_.back() ^ 1)].to;
        path_.pop_back();
        continue;
      }
      path_.push_back(e);
      v = edges_[static_cast<std::size_t>(e)].to;
      visit(v);
    }
    // All augmenting paths carry one unit (unit node capacities).
    for (int e : path_) {
      edges_[static_cast<std::size_t>(e)].capacity -= 1;
      edges_[static_cast<std::size_t>(e ^ 1)].capacity += 1;
    }
    return true;
  }

  std::vector<int> head_;
  std::vector<Edge> edges_;
  std::vector<int> mark_;       // == stamp_: visited by the latest search
  std::vector<int> next_edge_;  // DFS cursor per visited vertex
  std::vector<int> path_;
  int stamp_ = 0;
};

constexpr int kInfCap = 1 << 28;

// Backward transitive fanin of `t` (inclusive) into `cone`, in DFS pop
// order. `in_cone` is an id-indexed mark (node ids are dense, and
// index-keyed containers are immune to the iteration-order hazards the
// determinism suite guards against); a node is in t's cone iff its entry
// equals t, so the marks never need clearing between cones.
void collect_cone(const GateNetwork& gates, int t, std::vector<int>* in_cone,
                  std::vector<int>* stack, std::vector<int>* cone) {
  cone->clear();
  stack->assign(1, t);
  (*in_cone)[static_cast<std::size_t>(t)] = t;
  while (!stack->empty()) {
    int v = stack->back();
    stack->pop_back();
    cone->push_back(v);
    for (int f : gates.gate(v).fanins) {
      if ((*in_cone)[static_cast<std::size_t>(f)] != t) {
        (*in_cone)[static_cast<std::size_t>(f)] = t;
        stack->push_back(f);
      }
    }
  }
}

std::vector<int> unique_fanins(const GateNetwork& gates, int t) {
  std::vector<int> f = gates.gate(t).fanins;
  std::sort(f.begin(), f.end());
  f.erase(std::unique(f.begin(), f.end()), f.end());
  return f;
}

}  // namespace

FlowMapResult flowmap(const GateNetwork& gates, int k, int plane) {
  NM_CHECK_MSG(k >= 2 && k <= kMaxLutInputs, "unsupported LUT size " << k);
  gates.validate();

  const int n = gates.size();
  std::vector<int> label(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> cut(static_cast<std::size_t>(n));
  // Labelling scratch, shared by every gate's cone.
  FlowGraph flow;
  std::vector<int> in_cone(static_cast<std::size_t>(n), -1);
  std::vector<int> local(static_cast<std::size_t>(n), -1);
  std::vector<int> stack, cone;

  for (int t : gates.topological_order()) {
    const Gate& g = gates.gate(t);
    if (g.op == GateOp::kInput) {
      label[static_cast<std::size_t>(t)] = 0;
      continue;
    }
    if (g.op == GateOp::kOutput) {
      label[static_cast<std::size_t>(t)] =
          label[static_cast<std::size_t>(g.fanins[0])];
      continue;
    }

    int p = 0;
    for (int f : g.fanins)
      p = std::max(p, label[static_cast<std::size_t>(f)]);
    if (p == 0) {
      // All fanins are primary inputs: the trivial cut is K-feasible
      // (gates have arity <= 2 <= K).
      label[static_cast<std::size_t>(t)] = 1;
      cut[static_cast<std::size_t>(t)] = unique_fanins(gates, t);
      continue;
    }

    // Build the node-split flow network over the cone of t, collapsing all
    // cone nodes labeled p (plus t itself) into the sink.
    collect_cone(gates, t, &in_cone, &stack, &cone);
    // node id -> cone index, valid for the nodes of this cone.
    for (std::size_t i = 0; i < cone.size(); ++i)
      local[static_cast<std::size_t>(cone[i])] = static_cast<int>(i);

    auto in_sink = [&](int v) {
      return v == t || label[static_cast<std::size_t>(v)] == p;
    };

    const int num_local = static_cast<int>(cone.size());
    const int source = 2 * num_local;
    const int sink = 2 * num_local + 1;
    flow.reset(2 * num_local + 2);

    for (int v : cone) {
      int idx = local[static_cast<std::size_t>(v)];
      if (in_sink(v)) continue;
      // Unit node capacity: v_in (2*idx) -> v_out (2*idx+1).
      flow.add_edge(2 * idx, 2 * idx + 1, 1);
      if (gates.gate(v).op == GateOp::kInput) {
        flow.add_edge(source, 2 * idx, kInfCap);
      }
      for (int f : gates.gate(v).fanins) {
        NM_CHECK(!in_sink(f));  // labels are monotone along edges
        flow.add_edge(2 * local[static_cast<std::size_t>(f)] + 1, 2 * idx,
                      kInfCap);
      }
    }
    // In-edges of the collapsed sink set.
    for (int v : cone) {
      if (!in_sink(v)) continue;
      for (int f : gates.gate(v).fanins) {
        if (in_sink(f)) continue;
        flow.add_edge(2 * local[static_cast<std::size_t>(f)] + 1, sink,
                      kInfCap);
      }
    }

    int achieved = flow.max_flow_up_to(source, sink, k);
    if (achieved <= k) {
      label[static_cast<std::size_t>(t)] = p;
      std::vector<int>& c = cut[static_cast<std::size_t>(t)];
      for (int v : cone) {
        if (in_sink(v)) continue;
        int idx = local[static_cast<std::size_t>(v)];
        if (flow.on_source_side(2 * idx) && !flow.on_source_side(2 * idx + 1))
          c.push_back(v);
      }
      NM_CHECK_MSG(!c.empty() && static_cast<int>(c.size()) <= k,
                   "bad min cut of size " << c.size() << " at gate '"
                                          << g.name << "'");
    } else {
      label[static_cast<std::size_t>(t)] = p + 1;
      cut[static_cast<std::size_t>(t)] = unique_fanins(gates, t);
    }
  }

  // --- covering phase --------------------------------------------------------
  FlowMapResult result;
  result.labels = label;

  std::vector<int> lut_of(static_cast<std::size_t>(n), -1);  // gate -> net id
  // Primary inputs first, preserving order.
  for (int pi : gates.input_ids()) {
    lut_of[static_cast<std::size_t>(pi)] =
        result.net.add_input(gates.gate(pi).name, plane);
  }

  // Evaluates the covered cone of `t` for one assignment of its cut nodes.
  // A node is a cut input of t iff its cut_of entry equals t (each t is
  // covered once), and its memoized value is current iff its memo entry
  // equals the minterm's stamp.
  std::vector<int> cut_of(static_cast<std::size_t>(n), -1);
  std::vector<char> cut_val(static_cast<std::size_t>(n), 0);
  std::vector<int> memo(static_cast<std::size_t>(n), 0);
  std::vector<char> memo_val(static_cast<std::size_t>(n), 0);
  int minterm_stamp = 0;
  auto eval_cone = [&](int t) {
    ++minterm_stamp;
    auto rec = [&](auto&& self, int v) -> bool {
      const std::size_t vi = static_cast<std::size_t>(v);
      if (cut_of[vi] == t) return cut_val[vi] != 0;
      if (memo[vi] == minterm_stamp) return memo_val[vi] != 0;
      const Gate& gv = gates.gate(v);
      NM_CHECK_MSG(gv.op != GateOp::kInput,
                   "primary input inside covered cone of '"
                       << gates.gate(t).name << "'");
      bool a = self(self, gv.fanins[0]);
      bool b = gv.fanins.size() > 1 ? self(self, gv.fanins[1]) : false;
      bool r = gate_op_eval(gv.op, a, b);
      memo[vi] = minterm_stamp;
      memo_val[vi] = r ? 1 : 0;
      return r;
    };
    return rec(rec, t);
  };

  std::vector<int> needed;
  for (int po : gates.output_ids()) needed.push_back(gates.gate(po).fanins[0]);

  while (!needed.empty()) {
    int t = needed.back();
    needed.pop_back();
    if (lut_of[static_cast<std::size_t>(t)] != -1) continue;
    const std::vector<int>& c = cut[static_cast<std::size_t>(t)];
    NM_CHECK_MSG(!c.empty(), "no cut recorded for '" << gates.gate(t).name
                                                     << "'");
    // Make sure every cut node is realized before we wire the LUT.
    bool ready = true;
    for (int v : c) {
      if (lut_of[static_cast<std::size_t>(v)] == -1) {
        if (ready) {
          needed.push_back(t);  // revisit after fanins are built
          ready = false;
        }
        needed.push_back(v);
      }
    }
    if (!ready) continue;

    std::uint64_t truth = 0;
    const int bits = static_cast<int>(c.size());
    for (int v : c) cut_of[static_cast<std::size_t>(v)] = t;
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << bits); ++m) {
      for (int i = 0; i < bits; ++i)
        cut_val[static_cast<std::size_t>(c[static_cast<std::size_t>(i)])] =
            static_cast<char>((m >> i) & 1u);
      if (eval_cone(t)) truth |= (std::uint64_t{1} << m);
    }

    std::vector<int> fanins;
    fanins.reserve(c.size());
    for (int v : c)
      fanins.push_back(lut_of[static_cast<std::size_t>(v)]);
    lut_of[static_cast<std::size_t>(t)] = result.net.add_lut(
        gates.gate(t).name, std::move(fanins), truth, plane);
  }

  for (int po : gates.output_ids()) {
    int driver = gates.gate(po).fanins[0];
    result.net.add_output(gates.gate(po).name,
                          lut_of[static_cast<std::size_t>(driver)]);
  }

  result.net.compute_levels();
  result.net.validate();
  result.num_luts = result.net.num_luts();
  result.depth = result.net.max_depth();
  return result;
}

}  // namespace nanomap
