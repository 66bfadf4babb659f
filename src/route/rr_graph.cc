#include "route/rr_graph.h"

#include <map>
#include <sstream>

#include "util/trace.h"

namespace nanomap {

namespace {

DefectWireKind defect_kind_of(RrType type) {
  switch (type) {
    case RrType::kDirect: return DefectWireKind::kDirect;
    case RrType::kLen1: return DefectWireKind::kLen1;
    case RrType::kLen4: return DefectWireKind::kLen4;
    case RrType::kGlobal: return DefectWireKind::kGlobal;
    case RrType::kOpin:
    case RrType::kIpin: break;
  }
  NM_CHECK_MSG(false, "pins have no defect wire kind");
  return DefectWireKind::kDirect;
}

}  // namespace

const char* rr_type_name(RrType type) {
  switch (type) {
    case RrType::kOpin: return "OPIN";
    case RrType::kIpin: return "IPIN";
    case RrType::kDirect: return "DIRECT";
    case RrType::kLen1: return "LEN1";
    case RrType::kLen4: return "LEN4";
    case RrType::kGlobal: return "GLOBAL";
  }
  return "?";
}

RrGraph::RrGraph(const GridSize& grid, const ArchParams& arch)
    : grid_(grid), arch_(arch) {
  NM_CHECK(grid.width >= 1 && grid.height >= 1);
  build(arch);
}

int RrGraph::add_node(RrType type, int x, int y, int capacity, double delay,
                      double base_cost, int dir) {
  RrNode n;
  n.type = type;
  n.x = x;
  n.y = y;
  n.dir = static_cast<std::uint8_t>(dir);
  n.capacity = capacity;
  n.delay_ps = delay;
  n.base_cost = base_cost;
  nodes_.push_back(std::move(n));
  return size() - 1;
}

void RrGraph::add_edge(int from, int to) {
  nodes_[static_cast<std::size_t>(from)].edges.push_back(to);
}

int RrGraph::opin(int x, int y) const {
  return opin_[static_cast<std::size_t>(y * grid_.width + x)];
}

int RrGraph::ipin(int x, int y) const {
  return ipin_[static_cast<std::size_t>(y * grid_.width + x)];
}

void RrGraph::build(const ArchParams& arch) {
  const int w = grid_.width;
  const int h = grid_.height;
  const int sites = w * h;

  // Channel nodes carry their *surviving* capacity: physical tracks
  // minus the defect model's broken tracks for that channel. A channel
  // whose every track is broken stays in the graph with capacity 0 — the
  // topology (and compat node ids) is defect-independent; PathFinder's
  // occupancy-vs-capacity negotiation keeps converged routes off it.
  long long wire_masked = 0;
  auto add_channel = [&](RrType type, int x, int y, int dir, int tracks,
                         double delay, double cost) {
    int broken = defect_broken_tracks(arch.defects, defect_kind_of(type), x,
                                      y, dir, tracks);
    wire_masked += broken;
    return add_node(type, x, y, tracks - broken, delay, cost, dir);
  };

  opin_.resize(static_cast<std::size_t>(sites));
  ipin_.resize(static_cast<std::size_t>(sites));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      // Pin capacity is effectively the SMB's pin count; generous.
      opin_[static_cast<std::size_t>(y * w + x)] =
          add_node(RrType::kOpin, x, y, 1 << 20, 0.0, 0.0);
      ipin_[static_cast<std::size_t>(y * w + x)] = add_node(
          RrType::kIpin, x, y, 1 << 20, arch.local_mux_delay_ps, 0.0);
    }
  }

  // Direct links (one bundle per direction per site).
  static const int kDx[4] = {1, -1, 0, 0};
  static const int kDy[4] = {0, 0, 1, -1};
  if (arch.direct_links_per_side > 0) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        for (int dir = 0; dir < 4; ++dir) {
          int nx = x + kDx[dir];
          int ny = y + kDy[dir];
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          int d = add_channel(RrType::kDirect, x, y, dir,
                              arch.direct_links_per_side,
                              arch.direct_link_delay_ps, 1.0);
          add_edge(opin(x, y), d);
          add_edge(d, ipin(nx, ny));
        }
      }
    }
  }

  // Length-1 segments: one capacitated node per channel between adjacent
  // sites. len1_h[(x,y)] spans (x,y)-(x+1,y); len1_v spans (x,y)-(x,y+1).
  std::map<std::pair<int, int>, int> len1_h, len1_v;
  if (arch.len1_tracks > 0) {
    for (int y = 0; y < h; ++y)
      for (int x = 0; x + 1 < w; ++x)
        len1_h[{x, y}] = add_channel(RrType::kLen1, x, y, 0,
                                     arch.len1_tracks,
                                     arch.len1_wire_delay_ps, 1.2);
    for (int y = 0; y + 1 < h; ++y)
      for (int x = 0; x < w; ++x)
        len1_v[{x, y}] = add_channel(RrType::kLen1, x, y, 1,
                                     arch.len1_tracks,
                                     arch.len1_wire_delay_ps, 1.2);

    auto connect_len1 = [&](int seg, int x0, int y0, int x1, int y1) {
      add_edge(opin(x0, y0), seg);
      add_edge(opin(x1, y1), seg);
      add_edge(seg, ipin(x0, y0));
      add_edge(seg, ipin(x1, y1));
    };
    for (auto& [key, seg] : len1_h)
      connect_len1(seg, key.first, key.second, key.first + 1, key.second);
    for (auto& [key, seg] : len1_v)
      connect_len1(seg, key.first, key.second, key.first, key.second + 1);

    // Switchbox chaining: segments sharing an endpoint interconnect.
    auto chain = [&](int a, int b) {
      add_edge(a, b);
      add_edge(b, a);
    };
    for (auto& [key, seg] : len1_h) {
      auto [x, y] = key;
      if (auto it = len1_h.find({x + 1, y}); it != len1_h.end())
        chain(seg, it->second);
      for (int ex : {x, x + 1}) {
        if (auto it = len1_v.find({ex, y}); it != len1_v.end())
          chain(seg, it->second);
        if (auto it = len1_v.find({ex, y - 1}); it != len1_v.end())
          chain(seg, it->second);
      }
    }
    for (auto& [key, seg] : len1_v) {
      auto [x, y] = key;
      if (auto it = len1_v.find({x, y + 1}); it != len1_v.end())
        chain(seg, it->second);
    }
  }

  // Length-4 segments, starting every other site for coverage.
  if (arch.len4_tracks > 0) {
    std::map<std::pair<int, int>, int> len4_h, len4_v;
    auto add_len4 = [&](bool horizontal, int x, int y, int span) {
      int seg = add_channel(RrType::kLen4, x, y, horizontal ? 0 : 1,
                            arch.len4_tracks, arch.len4_wire_delay_ps, 1.6);
      for (int i = 0; i <= span; ++i) {
        int sx = horizontal ? x + i : x;
        int sy = horizontal ? y : y + i;
        add_edge(opin(sx, sy), seg);
        add_edge(seg, ipin(sx, sy));
      }
      return seg;
    };
    for (int y = 0; y < h; ++y)
      for (int x = 0; x + 1 < w; x += 2)
        len4_h[{x, y}] = add_len4(true, x, y, std::min(4, w - 1 - x));
    for (int x = 0; x < w; ++x)
      for (int y = 0; y + 1 < h; y += 2)
        len4_v[{x, y}] = add_len4(false, x, y, std::min(4, h - 1 - y));
    // Chain segments that physically overlap (same row/column, starts two
    // apart), so multi-segment length-4 routes need no intermediate pin.
    auto chain = [&](int a, int b) {
      add_edge(a, b);
      add_edge(b, a);
    };
    for (auto& [key, seg] : len4_h)
      if (auto it = len4_h.find({key.first + 2, key.second});
          it != len4_h.end())
        chain(seg, it->second);
    for (auto& [key, seg] : len4_v)
      if (auto it = len4_v.find({key.first, key.second + 2});
          it != len4_v.end())
        chain(seg, it->second);
  }

  // Global lines: one per row and one per column.
  if (arch.global_tracks > 0) {
    std::vector<int> glob_h(static_cast<std::size_t>(h));
    std::vector<int> glob_v(static_cast<std::size_t>(w));
    for (int y = 0; y < h; ++y) {
      glob_h[static_cast<std::size_t>(y)] =
          add_channel(RrType::kGlobal, 0, y, 0, arch.global_tracks,
                      arch.global_wire_delay_ps, 2.5);
      for (int x = 0; x < w; ++x) {
        add_edge(opin(x, y), glob_h[static_cast<std::size_t>(y)]);
        add_edge(glob_h[static_cast<std::size_t>(y)], ipin(x, y));
      }
    }
    for (int x = 0; x < w; ++x) {
      glob_v[static_cast<std::size_t>(x)] =
          add_channel(RrType::kGlobal, x, 0, 1, arch.global_tracks,
                      arch.global_wire_delay_ps, 2.5);
      for (int y = 0; y < h; ++y) {
        add_edge(opin(x, y), glob_v[static_cast<std::size_t>(x)]);
        add_edge(glob_v[static_cast<std::size_t>(x)], ipin(x, y));
      }
    }
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        add_edge(glob_h[static_cast<std::size_t>(y)],
                 glob_v[static_cast<std::size_t>(x)]);
        add_edge(glob_v[static_cast<std::size_t>(x)],
                 glob_h[static_cast<std::size_t>(y)]);
      }
    }
  }

  if (arch.defects.active())
    NM_TRACE_COUNT("defect.wire_masked", static_cast<long>(wire_masked));
}

std::string RrGraph::describe(int id) const {
  const RrNode& n = node(id);
  std::ostringstream os;
  os << rr_type_name(n.type) << "(" << n.x << "," << n.y << ")";
  return os.str();
}

}  // namespace nanomap
