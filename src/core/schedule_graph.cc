#include "core/schedule_graph.h"

#include <algorithm>
#include <map>
#include <set>

namespace nanomap {
namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Stage (1-based) containing level L under p levels per stage.
int stage_of_level(int level, int p) { return ceil_div(level, p); }

// Kosaraju SCC over a small adjacency structure. Returns component index
// per node (components numbered in reverse topological order).
std::vector<int> strongly_connected_components(
    const std::vector<std::vector<int>>& succs) {
  const int n = static_cast<int>(succs.size());
  std::vector<std::vector<int>> preds(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u)
    for (int v : succs[static_cast<std::size_t>(u)])
      preds[static_cast<std::size_t>(v)].push_back(u);

  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (int s = 0; s < n; ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    // Iterative post-order DFS.
    std::vector<std::pair<int, std::size_t>> stack{{s, 0}};
    seen[static_cast<std::size_t>(s)] = 1;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      if (idx < succs[static_cast<std::size_t>(u)].size()) {
        int v = succs[static_cast<std::size_t>(u)][idx++];
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = 1;
          stack.push_back({v, 0});
        }
      } else {
        order.push_back(u);
        stack.pop_back();
      }
    }
  }

  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  int num_comp = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (comp[static_cast<std::size_t>(*it)] != -1) continue;
    std::vector<int> stack{*it};
    comp[static_cast<std::size_t>(*it)] = num_comp;
    while (!stack.empty()) {
      int u = stack.back();
      stack.pop_back();
      for (int v : preds[static_cast<std::size_t>(u)]) {
        if (comp[static_cast<std::size_t>(v)] == -1) {
          comp[static_cast<std::size_t>(v)] = num_comp;
          stack.push_back(v);
        }
      }
    }
    ++num_comp;
  }
  return comp;
}

}  // namespace

PlaneScheduleGraph build_schedule_graph(const Design& design, int plane,
                                        const FoldingConfig& cfg) {
  const LutNetwork& net = design.net;
  PlaneScheduleGraph g;
  g.plane = plane;
  PlaneStats stats = net.plane_stats(plane);
  g.folding_level = cfg.no_folding() ? std::max(1, stats.depth) : cfg.level;
  g.num_stages = cfg.no_folding() ? 1 : cfg.stages_per_plane;
  g.num_plane_registers = static_cast<int>(net.plane_registers(plane).size());
  g.node_of_lut.assign(static_cast<std::size_t>(net.size()), -1);

  const int p = g.folding_level;
  std::vector<int> luts = net.plane_luts(plane);
  if (luts.empty()) return g;

  // Group LUTs into provisional nodes: (module, cluster slice) or single.
  // Slices cut the module at plane-absolute depth multiples of p (paper §3:
  // "all the LUTs at a depth <= p ... are grouped into the first cluster"),
  // which aligns every cluster with one folding-stage window.
  std::map<std::pair<int, int>, int> cluster_node;  // (module, slice) -> node
  auto make_node = [&g]() {
    g.nodes.emplace_back();
    g.nodes.back().id = static_cast<int>(g.nodes.size()) - 1;
    return g.nodes.back().id;
  };
  for (int id : luts) {
    const LutNode& n = net.node(id);
    int node_id;
    if (n.module_id >= 0) {
      int slice = stage_of_level(n.level, p);
      auto [it, inserted] =
          cluster_node.try_emplace({n.module_id, slice}, -1);
      if (inserted) {
        it->second = make_node();
        ScheduleNode& sn = g.nodes[static_cast<std::size_t>(it->second)];
        sn.is_cluster = true;
        sn.module_id = n.module_id;
        sn.cluster_index = slice;
        sn.slice = slice;
        sn.level_begin = n.level;
        sn.level_end = n.level;
        sn.weight = 0;
        sn.debug_name = design.module(n.module_id).name + ":c" +
                        std::to_string(slice);
      }
      node_id = it->second;
    } else {
      node_id = make_node();
      ScheduleNode& sn = g.nodes[static_cast<std::size_t>(node_id)];
      sn.level_begin = sn.level_end = n.level;
      sn.slice = stage_of_level(n.level, p);
      sn.weight = 0;
      sn.debug_name = n.name;
    }
    ScheduleNode& sn = g.nodes[static_cast<std::size_t>(node_id)];
    sn.luts.push_back(id);
    sn.weight += 1;
    sn.level_begin = std::min(sn.level_begin, n.level);
    sn.level_end = std::max(sn.level_end, n.level);
    g.node_of_lut[static_cast<std::size_t>(id)] = node_id;
  }

  // Provisional edges.
  auto build_edges = [&net, &luts](const std::vector<int>& node_of,
                                   int num_nodes) {
    std::vector<std::set<int>> succ_sets(
        static_cast<std::size_t>(num_nodes));
    for (int id : luts) {
      int dst = node_of[static_cast<std::size_t>(id)];
      for (int f : net.node(id).fanins) {
        if (net.node(f).kind != NodeKind::kLut) continue;
        int src = node_of[static_cast<std::size_t>(f)];
        if (src != dst) succ_sets[static_cast<std::size_t>(src)].insert(dst);
      }
    }
    std::vector<std::vector<int>> succs(static_cast<std::size_t>(num_nodes));
    for (int u = 0; u < num_nodes; ++u)
      succs[static_cast<std::size_t>(u)].assign(
          succ_sets[static_cast<std::size_t>(u)].begin(),
          succ_sets[static_cast<std::size_t>(u)].end());
    return succs;
  };

  std::vector<std::vector<int>> succs =
      build_edges(g.node_of_lut, static_cast<int>(g.nodes.size()));

  // Merge strongly connected components (interleaved cluster level ranges
  // can create mutual dependencies; merged nodes must then fit one stage).
  std::vector<int> comp = strongly_connected_components(succs);
  int num_comp = 0;
  for (int c : comp) num_comp = std::max(num_comp, c + 1);
  if (num_comp != static_cast<int>(g.nodes.size())) {
    std::vector<ScheduleNode> merged(static_cast<std::size_t>(num_comp));
    for (int i = 0; i < num_comp; ++i)
      merged[static_cast<std::size_t>(i)].id = i;
    for (const ScheduleNode& sn : g.nodes) {
      ScheduleNode& m =
          merged[static_cast<std::size_t>(comp[static_cast<std::size_t>(
              sn.id)])];
      if (m.luts.empty()) {
        m.is_cluster = sn.is_cluster;
        m.module_id = sn.module_id;
        m.cluster_index = sn.cluster_index;
        m.level_begin = sn.level_begin;
        m.level_end = sn.level_end;
        m.debug_name = sn.debug_name;
        m.weight = 0;
      } else {
        m.is_cluster = true;
        m.level_begin = std::min(m.level_begin, sn.level_begin);
        m.level_end = std::max(m.level_end, sn.level_end);
        m.debug_name += "+" + sn.debug_name;
      }
      m.luts.insert(m.luts.end(), sn.luts.begin(), sn.luts.end());
      m.weight += sn.weight;
    }
    g.nodes = std::move(merged);
    for (int id : luts) {
      g.node_of_lut[static_cast<std::size_t>(id)] =
          comp[static_cast<std::size_t>(
              g.node_of_lut[static_cast<std::size_t>(id)])];
    }
    succs = build_edges(g.node_of_lut, num_comp);
  }

  for (int u = 0; u < static_cast<int>(g.nodes.size()); ++u) {
    g.nodes[static_cast<std::size_t>(u)].succs =
        succs[static_cast<std::size_t>(u)];
    for (int v : succs[static_cast<std::size_t>(u)])
      g.nodes[static_cast<std::size_t>(v)].preds.push_back(u);
  }

  // Stored outputs: member LUTs consumed outside the node or by FFs/POs.
  for (ScheduleNode& sn : g.nodes) {
    std::set<int> member(sn.luts.begin(), sn.luts.end());
    for (int id : sn.luts) {
      bool stored = false;
      bool ff = false;
      for (int out : net.fanouts(id)) {
        const LutNode& dst = net.node(out);
        if (dst.kind == NodeKind::kLut) {
          if (member.count(out) == 0) stored = true;
        } else if (dst.kind == NodeKind::kFlipFlop ||
                   dst.kind == NodeKind::kOutput) {
          ff = true;
        }
      }
      if (stored || ff) ++sn.num_stored_outputs;
      if (ff) sn.feeds_flipflop = true;
    }
  }

  // Recompute slices (SCC merges may have widened level ranges) and check
  // that every node fits within one folding stage.
  for (ScheduleNode& sn : g.nodes) {
    sn.slice = stage_of_level(sn.level_begin, p);
    if (!cfg.no_folding() &&
        stage_of_level(sn.level_end, p) != sn.slice) {
      g.feasible = false;
    }
  }
  return g;
}

std::vector<int> topological_order(const PlaneScheduleGraph& graph) {
  const int n = static_cast<int>(graph.nodes.size());
  // Kahn topological order (graph is a DAG post-SCC-merge).
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (const ScheduleNode& sn : graph.nodes)
    indeg[static_cast<std::size_t>(sn.id)] =
        static_cast<int>(sn.preds.size());
  std::vector<int> topo;
  topo.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    if (indeg[static_cast<std::size_t>(i)] == 0) topo.push_back(i);
  for (std::size_t qi = 0; qi < topo.size(); ++qi) {
    for (int v : graph.nodes[static_cast<std::size_t>(topo[qi])].succs)
      if (--indeg[static_cast<std::size_t>(v)] == 0) topo.push_back(v);
  }
  NM_CHECK_MSG(static_cast<int>(topo.size()) == n,
               "schedule graph has a cycle after SCC merge");
  return topo;
}

TimeFrames compute_time_frames(const PlaneScheduleGraph& graph,
                               const std::vector<int>& stage_of) {
  const int n = static_cast<int>(graph.nodes.size());
  NM_CHECK(static_cast<int>(stage_of.size()) == n);
  TimeFrames tf;
  tf.asap.assign(static_cast<std::size_t>(n), 1);
  tf.alap.assign(static_cast<std::size_t>(n), graph.num_stages);
  if (n == 0) return tf;
  const std::vector<int> topo = topological_order(graph);

  // Forward (ASAP) pass in stage space. A dependent node can follow its
  // predecessor `gap` stages later, where gap is the window-slice
  // difference: 0 for same-slice nodes (the combinational chain fits one
  // p-level window at natural alignment), else the slice distance. At the
  // natural alignment (stage == slice) every node is schedulable, so an
  // unpinned graph is always feasible.
  for (int u : topo) {
    const ScheduleNode& sn = graph.nodes[static_cast<std::size_t>(u)];
    int stage = 1;
    for (int pr : sn.preds) {
      stage = std::max(stage, tf.asap[static_cast<std::size_t>(pr)] +
                                  schedule_gap(graph, pr, u));
    }
    int pin = stage_of[static_cast<std::size_t>(u)];
    if (pin > 0) stage = std::max(stage, pin);
    if (stage > graph.num_stages || (pin > 0 && stage != pin)) {
      tf.feasible = false;
      stage = std::min(stage, graph.num_stages);
    }
    tf.asap[static_cast<std::size_t>(u)] = stage;
  }

  // Backward (ALAP) pass, symmetric.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    int u = *it;
    const ScheduleNode& sn = graph.nodes[static_cast<std::size_t>(u)];
    int stage = graph.num_stages;
    for (int sc : sn.succs) {
      stage = std::min(stage, tf.alap[static_cast<std::size_t>(sc)] -
                                  schedule_gap(graph, u, sc));
    }
    int pin = stage_of[static_cast<std::size_t>(u)];
    if (pin > 0) stage = std::min(stage, pin);
    if (stage < 1 || (pin > 0 && stage != pin)) {
      tf.feasible = false;
      stage = std::max(stage, 1);
    }
    tf.alap[static_cast<std::size_t>(u)] = stage;
  }

  for (int i = 0; i < n; ++i) {
    if (tf.alap[static_cast<std::size_t>(i)] <
        tf.asap[static_cast<std::size_t>(i)]) {
      tf.feasible = false;
      tf.alap[static_cast<std::size_t>(i)] =
          tf.asap[static_cast<std::size_t>(i)];
    }
  }
  return tf;
}

int schedule_gap(const PlaneScheduleGraph& graph, int a, int b) {
  return std::max(0, graph.nodes[static_cast<std::size_t>(b)].slice -
                         graph.nodes[static_cast<std::size_t>(a)].slice);
}

}  // namespace nanomap
