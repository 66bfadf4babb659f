// The annealer's incremental cost kernel: cached per-SMB-set bounding
// boxes with boundary-occupancy counts must track a from-scratch
// recompute exactly — including through swap moves, rollbacks,
// shrink-edge rescans, nets that touch the same SMB with more than one
// pin, and many nets sharing one SMB set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "circuits/benchmarks.h"
#include "core/temporal_cluster.h"
#include "netlist/plane.h"
#include "place/annealer.h"
#include "place/net_bbox.h"

namespace nanomap {
namespace {

// A synthetic clustered design with controllable fanout; no netlist
// behind it — the annealer only reads num_smbs and nets.
ClusteredDesign make_random_cd(int smbs, int nets, int max_fanout,
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
    int fanout = rng.next_int(1, max_fanout);
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

Placement random_placement(const ClusteredDesign& cd, Rng* rng) {
  Placement p;
  p.grid = size_grid_for(cd.num_smbs);
  std::vector<int> sites(static_cast<std::size_t>(p.grid.sites()));
  for (int i = 0; i < p.grid.sites(); ++i)
    sites[static_cast<std::size_t>(i)] = i;
  rng->shuffle(sites);
  p.site_of_smb.assign(sites.begin(),
                       sites.begin() + cd.num_smbs);
  return p;
}

// Independent count of the distinct sorted SMB sets of `cd`'s nets.
int distinct_smb_sets(const ClusteredDesign& cd) {
  std::set<std::vector<int>> sets;
  for (const PlacedNet& pn : cd.nets) {
    std::set<int> members(pn.sink_smbs.begin(), pn.sink_smbs.end());
    members.insert(pn.driver_smb);
    sets.emplace(members.begin(), members.end());
  }
  return static_cast<int>(sets.size());
}

TEST(NetBoxCache, MatchesScratchUnderRandomSinglePinMoves) {
  ClusteredDesign cd = make_random_cd(24, 40, 6, 11);
  Rng rng(3);
  Placement p = random_placement(cd, &rng);
  NetBoxCache cache;
  cache.init(cd, p);
  ASSERT_EQ(cache.num_sets(), distinct_smb_sets(cd));

  // Set lists so every move updates exactly the sets it affects.
  std::vector<std::vector<int>> sets_of(
      static_cast<std::size_t>(cd.num_smbs));
  for (int s = 0; s < cache.num_sets(); ++s)
    for (const int* m = cache.members_begin(s); m != cache.members_end(s);
         ++m)
      sets_of[static_cast<std::size_t>(*m)].push_back(s);

  std::set<int> used(p.site_of_smb.begin(), p.site_of_smb.end());
  for (int step = 0; step < 2000; ++step) {
    int smb = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(cd.num_smbs)));
    int to = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(p.grid.sites())));
    if (used.count(to)) continue;  // single-SMB moves only in this fuzz
    int from = p.site_of_smb[static_cast<std::size_t>(smb)];
    int fx = from % p.grid.width, fy = from / p.grid.width;
    int tx = to % p.grid.width, ty = to / p.grid.width;
    used.erase(from);
    used.insert(to);
    p.site_of_smb[static_cast<std::size_t>(smb)] = to;
    cache.set_smb_xy(smb, tx, ty);
    for (int s : sets_of[static_cast<std::size_t>(smb)]) {
      NetBox b = cache.box(s);
      cache.move_member(&b, s, fx, fy, tx, ty);
      cache.store(s, b);
    }
    // Every box — updated or not — must equal the from-scratch scan,
    // boundary counts included, and every net's set hpwl must match the
    // per-net objective.
    for (int s = 0; s < cache.num_sets(); ++s)
      ASSERT_EQ(cache.box(s), cache.compute_box(s)) << "set " << s
                                                    << " step " << step;
    for (std::size_t n = 0; n < cd.nets.size(); ++n) {
      ClusteredDesign one;
      one.num_smbs = cd.num_smbs;
      one.nets.push_back(cd.nets[n]);
      ASSERT_EQ(std::int64_t{cache.hpwl(cache.set_of(static_cast<int>(n)))}
                    << kCostFracBits,
                placement_cost(one, p, 0.0))
          << "net " << n << " step " << step;
    }
  }
}

TEST(NetBoxCache, ShrinkEdgeRescanIsExact) {
  // Hand-built: driver at xmax alone; moving it inward forces the
  // last-member-on-a-shrinking-edge rescan path.
  ClusteredDesign cd;
  cd.num_cycles = 1;
  cd.num_smbs = 3;
  PlacedNet pn;
  pn.driver_smb = 0;
  pn.sink_smbs = {1, 2};
  cd.nets.push_back(pn);

  Placement p;
  p.grid = {5, 5};
  // smb0 (4,0), smb1 (0,0), smb2 (2,2).
  p.site_of_smb = {4, 0, 12};
  NetBoxCache cache;
  cache.init(cd, p);
  ASSERT_EQ(cache.num_sets(), 1);
  EXPECT_EQ(cache.box(0).xmax, 4);
  EXPECT_EQ(cache.box(0).on_xmax, 1);

  // Move smb0 to (1,1): xmax edge loses its only member.
  p.site_of_smb[0] = 6;
  cache.set_smb_xy(0, 1, 1);
  NetBox b = cache.box(0);
  cache.move_member(&b, 0, 4, 0, 1, 1);
  cache.store(0, b);
  EXPECT_EQ(cache.box(0), cache.compute_box(0));
  EXPECT_EQ(cache.box(0).xmax, 2);
  EXPECT_EQ(cache.hpwl(0), 2 + 2);
}

// Brute-force box of members at (xs[i], ys[i]), edge counts included.
NetBox scan_box(const std::vector<int>& xs, const std::vector<int>& ys) {
  NetBox b;
  b.xmin = *std::min_element(xs.begin(), xs.end());
  b.xmax = *std::max_element(xs.begin(), xs.end());
  b.ymin = *std::min_element(ys.begin(), ys.end());
  b.ymax = *std::max_element(ys.begin(), ys.end());
  b.on_xmin = static_cast<int>(std::count(xs.begin(), xs.end(), b.xmin));
  b.on_xmax = static_cast<int>(std::count(xs.begin(), xs.end(), b.xmax));
  b.on_ymin = static_cast<int>(std::count(ys.begin(), ys.end(), b.ymin));
  b.on_ymax = static_cast<int>(std::count(ys.begin(), ys.end(), b.ymax));
  return b;
}

// The portable scalar bbox path. move_member only calls move_axis on hosts
// without SSE2, so this drives it directly: random member moves on small
// sets (down to one member, where every move empties an edge), each axis
// updated in O(1) unless it bails. A bail must be exactly the
// last-member-on-a-shrinking-edge case and leave the axis untouched; the
// test then rebuilds that axis by scan, as rescan_x/rescan_y would.
TEST(NetBoxCache, PortableMoveAxisMatchesBruteForce) {
  Rng rng(23);
  long bails = 0, updates = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int members = rng.next_int(1, 6);
    std::vector<int> xs(static_cast<std::size_t>(members));
    std::vector<int> ys(static_cast<std::size_t>(members));
    for (int i = 0; i < members; ++i) {
      xs[static_cast<std::size_t>(i)] = rng.next_int(0, 5);
      ys[static_cast<std::size_t>(i)] = rng.next_int(0, 5);
    }
    NetBox box = scan_box(xs, ys);
    for (int step = 0; step < 50; ++step) {
      const std::size_t m =
          static_cast<std::size_t>(rng.next_int(0, members - 1));
      const int fx = xs[m], fy = ys[m];
      const int tx = rng.next_int(0, 5), ty = rng.next_int(0, 5);
      xs[m] = tx;
      ys[m] = ty;
      const NetBox want = scan_box(xs, ys);
      const NetBox before = box;
      const bool x_ok = NetBoxCache::move_axis(
          fx, tx, &box.xmin, &box.on_xmin, &box.xmax, &box.on_xmax);
      const bool y_ok = NetBoxCache::move_axis(
          fy, ty, &box.ymin, &box.on_ymin, &box.ymax, &box.on_ymax);
      auto sole_leaver = [](int from, int to, int lo, int n_lo, int hi,
                            int n_hi) {
        return (to < from && from == hi && n_hi == 1) ||
               (to > from && from == lo && n_lo == 1);
      };
      ASSERT_EQ(!x_ok, sole_leaver(fx, tx, before.xmin, before.on_xmin,
                                   before.xmax, before.on_xmax))
          << "trial " << trial << " step " << step;
      ASSERT_EQ(!y_ok, sole_leaver(fy, ty, before.ymin, before.on_ymin,
                                   before.ymax, before.on_ymax))
          << "trial " << trial << " step " << step;
      if (!x_ok) {
        ++bails;
        EXPECT_TRUE(box.xmin == before.xmin && box.xmax == before.xmax &&
                    box.on_xmin == before.on_xmin &&
                    box.on_xmax == before.on_xmax);
        box.xmin = want.xmin;
        box.xmax = want.xmax;
        box.on_xmin = want.on_xmin;
        box.on_xmax = want.on_xmax;
      }
      if (!y_ok) {
        ++bails;
        EXPECT_TRUE(box.ymin == before.ymin && box.ymax == before.ymax &&
                    box.on_ymin == before.on_ymin &&
                    box.on_ymax == before.on_ymax);
        box.ymin = want.ymin;
        box.ymax = want.ymax;
        box.on_ymin = want.on_ymin;
        box.on_ymax = want.on_ymax;
      }
      updates += static_cast<long>(x_ok) + static_cast<long>(y_ok);
      ASSERT_EQ(box, want) << "trial " << trial << " step " << step;
    }
  }
  // Both paths must actually have run.
  EXPECT_GT(bails, 100);
  EXPECT_GT(updates, 1000);
}

// Full-anneal audit: the running delta-accumulated cost must equal a
// from-scratch per-net placement_cost recompute exactly — integers do
// not drift.
TEST(Annealer, FullAnnealCostMatchesScratchBitExactly) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    ClusteredDesign cd = make_random_cd(30, 80, 8, 100 + seed);
    Rng rng(seed);
    Placement init = random_placement(cd, &rng);
    const double tw = 0.8;
    Annealer a(cd, init, tw, &rng);
    a.run(1.0);
    const std::int64_t scratch = placement_cost(cd, a.placement(), tw);
    EXPECT_EQ(a.cost(), scratch) << "seed " << seed;
  }
}

// Regression for the nets_of_ double-count bug: an SMB incident to the
// same net via several pins (driver + sink — a self-feeding net — or
// repeated sink pins) used to contribute that net twice to the move
// delta, so the running cost drifted away from the true objective. Each
// set is visited once per move, so the running cost stays exact.
TEST(Annealer, SelfFeedingNetDoesNotDriftRunningCost) {
  ClusteredDesign cd;
  cd.num_cycles = 1;
  cd.num_smbs = 4;
  PlacedNet self;
  self.driver_smb = 0;
  self.sink_smbs = {0, 1, 2};  // driver's own SMB again + two real sinks
  self.criticality = 0.5;
  cd.nets.push_back(self);
  PlacedNet dup;
  dup.driver_smb = 1;
  dup.sink_smbs = {3, 3};  // repeated sink pin
  dup.criticality = 0.25;
  cd.nets.push_back(dup);
  PlacedNet plain;
  plain.driver_smb = 2;
  plain.sink_smbs = {3};
  cd.nets.push_back(plain);

  Rng rng(9);
  Placement init = random_placement(cd, &rng);
  Annealer a(cd, init, 0.8, &rng);
  a.run(4.0);
  const std::int64_t scratch = placement_cost(cd, a.placement(), 0.8);
  EXPECT_EQ(a.cost(), scratch);
}

// Real-circuit end-to-end: the incremental kernel through the two-step
// placement of a paper benchmark still lands on the exact objective.
TEST(Annealer, BenchmarkCircuitCostMatchesScratch) {
  Design d = make_benchmark("ex1");
  CircuitParams p = extract_circuit_params(d.net);
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  DesignSchedule sched;
  sched.folding = make_folding_config(p, 1);
  sched.planes_share = true;
  for (int plane = 0; plane < p.num_plane; ++plane) {
    PlaneScheduleGraph g = build_schedule_graph(d, plane, sched.folding);
    sched.plane_results.push_back(schedule_plane(g, arch));
    sched.graphs.push_back(std::move(g));
  }
  ClusteredDesign cd = temporal_cluster(d, sched, arch);
  Rng rng(42);
  Placement init = random_placement(cd, &rng);
  Annealer a(cd, init, 0.8, &rng);
  a.run(1.0);
  EXPECT_EQ(a.cost(), placement_cost(cd, a.placement(), 0.8));
}

// Nets repeated across folding cycles: make_random_cd's nets plus a
// self-feeding net and a duplicate-sink net, copied `k` times copy-major
// (as the per-cycle nets of a clustered design are), each copy with its
// own criticality. Copies share an SMB set, so the annealer's set boxes
// serve k nets each while every copy keeps its own cost weight.
ClusteredDesign make_repeated_cd(int k, std::uint64_t seed) {
  ClusteredDesign base = make_random_cd(12, 24, 5, seed);
  PlacedNet self;
  self.driver_smb = 0;
  self.sink_smbs = {0, 3, 7};  // the driver's own SMB again
  base.nets.push_back(self);
  PlacedNet dup;
  dup.driver_smb = 5;
  dup.sink_smbs = {9, 9, 2};  // repeated sink pin
  base.nets.push_back(dup);

  ClusteredDesign cd;
  cd.num_cycles = k;
  cd.num_smbs = base.num_smbs;
  Rng rng(seed + 1000);
  for (int c = 0; c < k; ++c) {
    for (const PlacedNet& pn : base.nets) {
      PlacedNet copy = pn;
      copy.cycle = c;
      copy.criticality = rng.next_double();
      cd.nets.push_back(std::move(copy));
    }
  }
  return cd;
}

std::uint64_t placement_hash(const Placement& p) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the site ints
  for (int site : p.site_of_smb) {
    for (int b = 0; b < 4; ++b) {
      h ^= static_cast<unsigned char>(static_cast<unsigned>(site) >> (8 * b));
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Golden final placements of the repeated-set designs, captured from the
// per-net annealer the set-keyed one replaced (the fixed-point objective,
// one int64 weight per SMB set, still landed on all three) and
// re-captured when T0 became a dry-run estimate and the schedule gained
// its frozen exit. Any change to the move kernel must reproduce every
// move of this one.
TEST(Annealer, RepeatedSetPlacementsArePinned) {
  struct Case {
    int k;
    std::uint64_t want;
  };
  for (const Case& c : {Case{1, 0xb5c5d5ba81e01998ull},
                        Case{4, 0x5f30affd88997873ull},
                        Case{16, 0x3844a2f41fd6e53dull}}) {
    ClusteredDesign cd = make_repeated_cd(c.k, 31);
    Rng rng(static_cast<std::uint64_t>(c.k));
    Placement init = random_placement(cd, &rng);
    NetBoxCache cache;
    cache.init(cd, init);
    EXPECT_EQ(cache.num_sets(), distinct_smb_sets(cd)) << "k " << c.k;
    EXPECT_EQ(count_smb_sets(cd), distinct_smb_sets(cd)) << "k " << c.k;
    Annealer a(cd, init, 0.8, &rng);
    a.run(1.0);
    EXPECT_EQ(placement_hash(a.placement()), c.want)
        << "k " << c.k << " got 0x" << std::hex
        << placement_hash(a.placement());
    EXPECT_EQ(a.cost(), placement_cost(cd, a.placement(), 0.8))
        << "k " << c.k;
  }
}

// Repetition does not multiply the boxes: k copies of a design keep the
// set count of one.
TEST(Annealer, RepeatedNetsShareOneSetBox) {
  ClusteredDesign one = make_repeated_cd(1, 31);
  ClusteredDesign many = make_repeated_cd(16, 31);
  ASSERT_EQ(many.nets.size(), 16 * one.nets.size());
  EXPECT_EQ(count_smb_sets(many), count_smb_sets(one));
  EXPECT_EQ(count_smb_sets(one), distinct_smb_sets(one));
}

}  // namespace
}  // namespace nanomap
