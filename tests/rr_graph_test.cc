#include <gtest/gtest.h>

#include <queue>

#include "route/rr_graph.h"

namespace nanomap {
namespace {

// BFS reachability from a node over RR edges.
bool reaches(const RrGraph& rr, int from, int to) {
  std::vector<bool> seen(static_cast<std::size_t>(rr.size()), false);
  std::queue<int> q;
  q.push(from);
  seen[static_cast<std::size_t>(from)] = true;
  while (!q.empty()) {
    int v = q.front();
    q.pop();
    if (v == to) return true;
    for (int e : rr.node(v).edges) {
      if (!seen[static_cast<std::size_t>(e)]) {
        seen[static_cast<std::size_t>(e)] = true;
        q.push(e);
      }
    }
  }
  return false;
}

TEST(RrGraph, EveryOpinReachesEveryIpin) {
  ArchParams arch = ArchParams::paper_instance();
  RrGraph rr({4, 4}, arch);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_TRUE(reaches(rr, rr.opin(0, 0), rr.ipin(x, y)))
          << "(0,0)->(" << x << "," << y << ")";
      EXPECT_TRUE(reaches(rr, rr.opin(x, y), rr.ipin(0, 3)));
    }
  }
}

TEST(RrGraph, CapacitiesMatchArchitecture) {
  ArchParams arch = ArchParams::paper_instance();
  RrGraph rr({3, 3}, arch);
  bool saw[4] = {false, false, false, false};
  for (int i = 0; i < rr.size(); ++i) {
    const RrNode& n = rr.node(i);
    switch (n.type) {
      case RrType::kDirect:
        EXPECT_EQ(n.capacity, arch.direct_links_per_side);
        saw[0] = true;
        break;
      case RrType::kLen1:
        EXPECT_EQ(n.capacity, arch.len1_tracks);
        saw[1] = true;
        break;
      case RrType::kLen4:
        EXPECT_EQ(n.capacity, arch.len4_tracks);
        saw[2] = true;
        break;
      case RrType::kGlobal:
        EXPECT_EQ(n.capacity, arch.global_tracks);
        saw[3] = true;
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw[0] && saw[1] && saw[2] && saw[3]);
}

TEST(RrGraph, DisabledWireTypesAreAbsent) {
  ArchParams arch = ArchParams::paper_instance();
  arch.global_tracks = 0;
  arch.len4_tracks = 0;
  RrGraph rr({3, 3}, arch);
  for (int i = 0; i < rr.size(); ++i) {
    EXPECT_NE(rr.node(i).type, RrType::kGlobal);
    EXPECT_NE(rr.node(i).type, RrType::kLen4);
  }
  // Still fully connected through direct/len1.
  EXPECT_TRUE(reaches(rr, rr.opin(0, 0), rr.ipin(2, 2)));
}

TEST(RrGraph, DelaysFollowHierarchy) {
  ArchParams arch = ArchParams::paper_instance();
  EXPECT_LT(arch.direct_link_delay_ps, arch.len1_wire_delay_ps);
  EXPECT_LT(arch.len1_wire_delay_ps, arch.len4_wire_delay_ps);
  EXPECT_LT(arch.len4_wire_delay_ps, arch.global_wire_delay_ps);
  RrGraph rr({3, 3}, arch);
  for (int i = 0; i < rr.size(); ++i) {
    const RrNode& n = rr.node(i);
    if (n.type == RrType::kDirect) {
      EXPECT_DOUBLE_EQ(n.delay_ps, arch.direct_link_delay_ps);
    }
    if (n.type == RrType::kGlobal) {
      EXPECT_DOUBLE_EQ(n.delay_ps, arch.global_wire_delay_ps);
    }
  }
}

TEST(RrGraph, OnebyOneGridDegenerate) {
  ArchParams arch = ArchParams::paper_instance();
  RrGraph rr({1, 1}, arch);
  EXPECT_GE(rr.size(), 2);  // at least OPIN + IPIN
  EXPECT_EQ(rr.opin(0, 0) != rr.ipin(0, 0), true);
}

TEST(RrGraph, DescribeNames) {
  ArchParams arch = ArchParams::paper_instance();
  RrGraph rr({2, 2}, arch);
  EXPECT_EQ(rr.describe(rr.opin(1, 0)), "OPIN(1,0)");
  EXPECT_EQ(rr.describe(rr.ipin(0, 1)), "IPIN(0,1)");
}

TEST(ArchParams, ValidationCatchesBadConfigs) {
  ArchParams arch = ArchParams::paper_instance();
  EXPECT_NO_THROW(arch.validate());
  arch.lut_size = 9;
  EXPECT_THROW(arch.validate(), CheckError);
  arch = ArchParams::paper_instance();
  arch.direct_links_per_side = 0;
  arch.len1_tracks = 0;
  arch.len4_tracks = 0;
  arch.global_tracks = 0;
  EXPECT_THROW(arch.validate(), CheckError);
}

TEST(ArchParams, PaperInstanceShape) {
  ArchParams a = ArchParams::paper_instance();
  EXPECT_EQ(a.lut_size, 4);
  EXPECT_EQ(a.ff_per_le, 2);
  EXPECT_EQ(a.les_per_smb(), 16);
  EXPECT_EQ(a.num_reconf, 16);
  EXPECT_DOUBLE_EQ(a.reconf_time_ps, 160.0);
  EXPECT_FALSE(a.reconf_unbounded());
  EXPECT_TRUE(ArchParams::paper_instance_unbounded_k().reconf_unbounded());
  EXPECT_GT(a.smb_area_um2(), 0.0);
}

}  // namespace
}  // namespace nanomap
