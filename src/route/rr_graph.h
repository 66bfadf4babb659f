// Routing-resource graph for NATURE's island-style interconnect.
//
// The fabric offers four interconnect types (paper §4.4): direct links to
// the four adjacent SMBs, length-1 segments, length-4 segments, and
// chip-spanning global lines; a length-i segment spans i SMBs. Wires of
// one type in one channel are modeled as a single capacitated node (the
// PathFinder router negotiates per-node occupancy against capacity), which
// keeps the graph small without changing congestion behaviour.
//
// Node kinds and connectivity:
//   OPIN(site)         -> DIRECT(site,dir), LEN1/LEN4 touching the site,
//                         GLOBAL_H(row), GLOBAL_V(col)
//   DIRECT(site,dir)   -> IPIN(neighbor site)
//   LEN1(channel)      -> IPIN at both endpoints, adjacent LEN1, crossing
//                         LEN1, co-located LEN4
//   LEN4(span)         -> IPIN at spanned sites, LEN1/LEN4 at endpoints
//   GLOBAL_H/V         -> IPIN everywhere in the row/col, crossing GLOBAL
//   IPIN(site)         -> (sink)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/nature.h"

namespace nanomap {

enum class RrType : std::uint8_t {
  kOpin,
  kIpin,
  kDirect,
  kLen1,
  kLen4,
  kGlobal,
};

const char* rr_type_name(RrType type);

struct RrNode {
  RrType type = RrType::kOpin;
  int x = 0;  // anchor site
  int y = 0;
  // Channel orientation within the anchor: direct links use 0..3 =
  // e/w/n/s; len1/len4/global use 0 = horizontal, 1 = vertical. Together
  // with (type, x, y) this names the physical channel — the key the
  // defect model masks by, and what tells a horizontal global line (full
  // row at y) from a vertical one (full column at x).
  std::uint8_t dir = 0;
  int capacity = 1;
  double delay_ps = 0.0;
  double base_cost = 1.0;
  std::vector<int> edges;  // outgoing neighbor node ids
};

class RrGraph {
 public:
  RrGraph(const GridSize& grid, const ArchParams& arch);

  int size() const { return static_cast<int>(nodes_.size()); }
  const RrNode& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  const GridSize& grid() const { return grid_; }
  const ArchParams& arch() const { return arch_; }

  int opin(int x, int y) const;
  int ipin(int x, int y) const;

  std::string describe(int id) const;

 private:
  int add_node(RrType type, int x, int y, int capacity, double delay,
               double base_cost, int dir = 0);
  void add_edge(int from, int to);
  void build(const ArchParams& arch);

  GridSize grid_;
  ArchParams arch_;
  std::vector<RrNode> nodes_;
  std::vector<int> opin_;  // site -> node id
  std::vector<int> ipin_;
};

}  // namespace nanomap
