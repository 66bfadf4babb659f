#include "place/net_bbox.h"

#include <algorithm>
#include <map>

#include "place/placement.h"

namespace nanomap {
namespace {

// Groups the nets of `cd` by SMB set — the sorted, deduplicated
// {driver_smb} ∪ sink_smbs — and returns each net's set id, ids numbered
// by first appearance in net order. Calls visit(members) once per set,
// in id order.
template <typename Visit>
std::vector<int> group_smb_sets(const ClusteredDesign& cd, Visit visit) {
  std::map<std::vector<int>, int> ids;
  std::vector<int> set_of_net;
  set_of_net.reserve(cd.nets.size());
  std::vector<int> members;
  for (const PlacedNet& pn : cd.nets) {
    members.assign(pn.sink_smbs.begin(), pn.sink_smbs.end());
    members.push_back(pn.driver_smb);
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
    auto [it, fresh] =
        ids.try_emplace(members, static_cast<int>(ids.size()));
    if (fresh) visit(members);
    set_of_net.push_back(it->second);
  }
  return set_of_net;
}

void add_pin(NetBox& b, int x, int y) {
  if (x < b.xmin) {
    b.xmin = x;
    b.on_xmin = 1;
  } else if (x == b.xmin) {
    ++b.on_xmin;
  }
  if (x > b.xmax) {
    b.xmax = x;
    b.on_xmax = 1;
  } else if (x == b.xmax) {
    ++b.on_xmax;
  }
  if (y < b.ymin) {
    b.ymin = y;
    b.on_ymin = 1;
  } else if (y == b.ymin) {
    ++b.on_ymin;
  }
  if (y > b.ymax) {
    b.ymax = y;
    b.on_ymax = 1;
  } else if (y == b.ymax) {
    ++b.on_ymax;
  }
}

// Min/max + edge-occupancy scan of one axis, written with ternaries so
// the per-member comparisons compile to conditional moves — the
// coordinate stream is random, and the branchy form mispredicts on every
// new extreme or edge hit.
struct AxisScan {
  std::int32_t mn, mx, n_mn, n_mx;
  explicit AxisScan(std::int32_t first)
      : mn(first), mx(first), n_mn(1), n_mx(1) {}
  void add(std::int32_t v) {
    bool lt = v < mn;
    n_mn = lt ? 1 : n_mn + static_cast<std::int32_t>(v == mn);
    mn = lt ? v : mn;
    bool gt = v > mx;
    n_mx = gt ? 1 : n_mx + static_cast<std::int32_t>(v == mx);
    mx = gt ? v : mx;
  }
};

AxisScan scan_axis(const int* first, const int* last,
                   const std::vector<std::int32_t>& coord) {
  AxisScan scan(coord[static_cast<std::size_t>(*first)]);
  for (const int* m = first + 1; m != last; ++m)
    scan.add(coord[static_cast<std::size_t>(*m)]);
  return scan;
}

}  // namespace

int count_smb_sets(const ClusteredDesign& cd) {
  int sets = 0;
  group_smb_sets(cd, [&](const std::vector<int>&) { ++sets; });
  return sets;
}

void NetBoxCache::init(const ClusteredDesign& cd,
                       const Placement& placement) {
  // Flatten the site->coordinate divisions once; rescans then run on pure
  // array reads, which is what keeps the shrink-edge fallback cheap.
  xs_.resize(static_cast<std::size_t>(cd.num_smbs));
  ys_.resize(static_cast<std::size_t>(cd.num_smbs));
  for (int m = 0; m < cd.num_smbs; ++m) {
    xs_[static_cast<std::size_t>(m)] = placement.x_of(m);
    ys_[static_cast<std::size_t>(m)] = placement.y_of(m);
  }
  set_smbs_.clear();
  set_begin_.assign(1, 0);
  set_of_net_ = group_smb_sets(cd, [&](const std::vector<int>& members) {
    set_smbs_.insert(set_smbs_.end(), members.begin(), members.end());
    set_begin_.push_back(static_cast<int>(set_smbs_.size()));
  });
  const int sets = static_cast<int>(set_begin_.size()) - 1;
  boxes_.resize(static_cast<std::size_t>(sets));
  for (int s = 0; s < sets; ++s) store(s, compute_box(s));
}

void NetBoxCache::rescan_x(int s, NetBox* b) const {
  AxisScan scan = scan_axis(members_begin(s), members_end(s), xs_);
  b->xmin = scan.mn;
  b->xmax = scan.mx;
  b->on_xmin = scan.n_mn;
  b->on_xmax = scan.n_mx;
}

void NetBoxCache::rescan_y(int s, NetBox* b) const {
  AxisScan scan = scan_axis(members_begin(s), members_end(s), ys_);
  b->ymin = scan.mn;
  b->ymax = scan.mx;
  b->on_ymin = scan.n_mn;
  b->on_ymax = scan.n_mx;
}

NetBox NetBoxCache::compute_box(int s) const {
  const int* m = members_begin(s);
  NetBox b;
  b.xmin = b.xmax = xs_[static_cast<std::size_t>(*m)];
  b.ymin = b.ymax = ys_[static_cast<std::size_t>(*m)];
  b.on_xmin = b.on_xmax = b.on_ymin = b.on_ymax = 1;
  for (++m; m != members_end(s); ++m)
    add_pin(b, xs_[static_cast<std::size_t>(*m)],
            ys_[static_cast<std::size_t>(*m)]);
  return b;
}

}  // namespace nanomap
