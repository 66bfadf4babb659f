// Defect model tests (arch/defect.h) and the defect-tolerant flow
// (DESIGN.md §5j): parser round-trips and diagnostics, deterministic
// seeded fates, RR-graph capacity masking,
// placement legality and the bipartite fit check, bitstream-level
// defect verification, and the end-to-end flow invariants — an inactive
// or empty spec is byte-identical to the defect-free flow, an active one
// is thread-count invariant, and an impossible fabric
// yields the typed kDefectInfeasible error.
#include "arch/defect.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "bitstream/bitmap.h"
#include "circuits/benchmarks.h"
#include "flow/nanomap_flow.h"
#include "route/rr_graph.h"
#include "util/check.h"
#include "util/trace.h"

namespace nanomap {
namespace {

// --- spec / hash basics ----------------------------------------------------

TEST(DefectSpec, InactiveByDefaultAndSigZero) {
  DefectSpec spec;
  EXPECT_FALSE(spec.active());
  EXPECT_EQ(spec.content_sig(), 0u);
  // Unused seeds must not distinguish inactive specs.
  spec.seed = 12345;
  EXPECT_EQ(spec.content_sig(), 0u);
  EXPECT_FALSE(defect_smb_dead(spec, 0, 0));
  EXPECT_FALSE(defect_le_dead(spec, 0, 0, 0));
  EXPECT_EQ(defect_broken_tracks(spec, DefectWireKind::kLen1, 0, 0, 0, 8), 0);
}

TEST(DefectSpec, ActiveSigDependsOnSeedAndRates) {
  DefectSpec a;
  a.seed = 1;
  a.le_rate = 0.01;
  DefectSpec b = a;
  EXPECT_NE(a.content_sig(), 0u);
  EXPECT_EQ(a.content_sig(), b.content_sig());
  b.seed = 2;
  EXPECT_NE(a.content_sig(), b.content_sig());
  b = a;
  b.wire_rate = 0.02;
  EXPECT_NE(a.content_sig(), b.content_sig());
}

TEST(DefectSpec, GeneratedFatesAreDeterministicAndRateMonotone) {
  DefectSpec spec;
  spec.seed = 7;
  spec.le_rate = 0.1;
  spec.smb_rate = 0.1;
  spec.wire_rate = 0.1;
  // Same query, same answer — and a full re-query sweep matches itself.
  int dead = 0;
  for (int x = 0; x < 16; ++x)
    for (int y = 0; y < 16; ++y) {
      EXPECT_EQ(defect_smb_dead(spec, x, y), defect_smb_dead(spec, x, y));
      if (defect_smb_dead(spec, x, y)) ++dead;
    }
  // ~10% of 256 sites; generous determinism-not-statistics bounds.
  EXPECT_GT(dead, 5);
  EXPECT_LT(dead, 80);

  DefectSpec all = spec;
  all.le_rate = all.smb_rate = all.wire_rate = 1.0;
  DefectSpec none = spec;
  none.le_rate = none.smb_rate = 0.0;
  none.wire_rate = 1e-18;  // keep the spec active with ~zero fates
  EXPECT_TRUE(defect_smb_dead(all, 3, 4));
  EXPECT_TRUE(defect_le_dead(all, 3, 4, 5));
  EXPECT_EQ(defect_broken_tracks(all, DefectWireKind::kLen4, 3, 4, 1, 6), 6);
  EXPECT_FALSE(defect_smb_dead(none, 3, 4));
  EXPECT_FALSE(defect_le_dead(none, 3, 4, 5));
}

TEST(DefectSpec, BrokenTracksMonotoneUnderWidening) {
  DefectSpec spec;
  spec.seed = 11;
  spec.wire_rate = 0.3;
  for (int kind = 0; kind < 4; ++kind) {
    for (int t = 1; t < 24; ++t) {
      int narrow = defect_broken_tracks(
          spec, static_cast<DefectWireKind>(kind), 2, 3, 1, t);
      int wide = defect_broken_tracks(
          spec, static_cast<DefectWireKind>(kind), 2, 3, 1, t + 1);
      // Appending one more track draw breaks at most one more track: the
      // surviving capacity (tracks - broken) never shrinks.
      EXPECT_GE(wide, narrow);
      EXPECT_LE(wide, narrow + 1);
    }
  }
}

TEST(DefectSpec, ValidateRejectsOutOfRangeRates) {
  DefectSpec spec;
  spec.le_rate = 1.5;
  EXPECT_THROW(spec.validate(), CheckError);
  spec.le_rate = -0.1;
  EXPECT_THROW(spec.validate(), CheckError);
}

// --- text format -----------------------------------------------------------

const char* kMap =
    "defect_map v1\n"
    "# comment\n"
    "grid 4 4\n"
    "smb 1 2\n"
    "le 0 0 3\n"
    "le 3 3 15\n"
    "wire len1 2 3 h 2\n"
    "wire direct 0 1 e 1\n"
    "wire global 3 0 v 1\n";

TEST(DefectMapFormat, ParsesAndRoundTrips) {
  DefectSpec spec = parse_defect_map(kMap);
  ASSERT_NE(spec.map, nullptr);
  EXPECT_TRUE(spec.active());
  EXPECT_EQ(spec.map->grid_width, 4);
  EXPECT_EQ(spec.map->dead_smbs.size(), 1u);
  EXPECT_EQ(spec.map->dead_les.size(), 2u);
  EXPECT_EQ(spec.map->broken_wires.size(), 3u);
  EXPECT_TRUE(defect_smb_dead(spec, 1, 2));
  EXPECT_FALSE(defect_smb_dead(spec, 2, 1));
  EXPECT_TRUE(defect_le_dead(spec, 0, 0, 3));
  EXPECT_EQ(defect_broken_tracks(spec, DefectWireKind::kLen1, 2, 3, 0, 8), 2);
  // A declared break count clamps to the physical track count.
  EXPECT_EQ(defect_broken_tracks(spec, DefectWireKind::kLen1, 2, 3, 0, 1), 1);
  EXPECT_EQ(defect_broken_tracks(spec, DefectWireKind::kLen1, 2, 3, 1, 8), 0);

  DefectSpec again = parse_defect_map(write_defect_map(*spec.map));
  EXPECT_EQ(spec.content_sig(), again.content_sig());
  EXPECT_EQ(write_defect_map(*spec.map), write_defect_map(*again.map));
}

TEST(DefectMapFormat, RejectsMalformedInput) {
  EXPECT_THROW(parse_defect_map(""), InputError);
  EXPECT_THROW(parse_defect_map("defect_map v2\ngrid 2 2\n"), InputError);
  EXPECT_THROW(parse_defect_map("defect_map v1\nsmb 0 0\n"), InputError);
  EXPECT_THROW(parse_defect_map("defect_map v1\ngrid 0 4\n"), InputError);
  EXPECT_THROW(
      parse_defect_map("defect_map v1\ngrid 2 2\ngrid 2 2\n"), InputError);
  EXPECT_THROW(parse_defect_map("defect_map v1\ngrid 2 2\nsmb 2 0\n"),
               InputError);
  EXPECT_THROW(parse_defect_map("defect_map v1\ngrid 2 2\nsmb 0 0\nsmb 0 0\n"),
               InputError);
  EXPECT_THROW(parse_defect_map("defect_map v1\ngrid 2 2\nle 0 0\n"),
               InputError);
  EXPECT_THROW(
      parse_defect_map("defect_map v1\ngrid 2 2\nwire len9 0 0 h 1\n"),
      InputError);
  EXPECT_THROW(
      parse_defect_map("defect_map v1\ngrid 2 2\nwire len1 0 0 e 1\n"),
      InputError);
  EXPECT_THROW(
      parse_defect_map("defect_map v1\ngrid 2 2\nwire len1 0 0 h 0\n"),
      InputError);
  EXPECT_THROW(parse_defect_map("defect_map v1\ngrid 2 2\nbogus 1\n"),
               InputError);
}

TEST(DefectMapFormat, ParsesInlineRates) {
  DefectSpec spec = parse_defect_rates("seed=9,le=0.01,smb=0.005,wire=0.02");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_DOUBLE_EQ(spec.le_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.smb_rate, 0.005);
  EXPECT_DOUBLE_EQ(spec.wire_rate, 0.02);
  EXPECT_THROW(parse_defect_rates("le"), InputError);
  EXPECT_THROW(parse_defect_rates("banana=1"), InputError);
  EXPECT_THROW(parse_defect_rates("le=2.0"), InputError);
}

// --- RR graph masking ------------------------------------------------------

ArchParams narrow_arch() {
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  arch.les_per_mb = 2;
  arch.mbs_per_smb = 2;
  arch.len1_tracks = 4;
  arch.len4_tracks = 2;
  arch.global_tracks = 2;
  return arch;
}

long total_channel_capacity(const RrGraph& rr) {
  long cap = 0;
  for (int n = 0; n < rr.size(); ++n) {
    const RrNode& node = rr.node(n);
    if (node.type != RrType::kOpin && node.type != RrType::kIpin)
      cap += node.capacity;
  }
  return cap;
}

TEST(DefectRrGraph, WireDefectsReduceCapacityAndCompatSig) {
  GridSize grid{4, 4};
  ArchParams clean = narrow_arch();
  ArchParams broken = clean;
  broken.defects.seed = 3;
  broken.defects.wire_rate = 0.25;

  RrGraph rr_clean(grid, clean);
  RrGraph rr_broken(grid, broken);
  ASSERT_EQ(rr_clean.size(), rr_broken.size());
  EXPECT_LT(total_channel_capacity(rr_broken),
            total_channel_capacity(rr_clean));
  // The defect signature is part of the fabric's identity: the serving
  // caches key RR-graph prototypes by it, so a clean graph is never
  // handed out for a defective fabric.
  EXPECT_NE(clean.defects.content_sig(), broken.defects.content_sig());
  // Same defects, same masked capacities.
  RrGraph rr_again(grid, broken);
  EXPECT_EQ(total_channel_capacity(rr_broken),
            total_channel_capacity(rr_again));
}

// --- placement legality ----------------------------------------------------

// A tiny clustered design: `n` SMBs, each configuring LE slots [0, used).
ClusteredDesign tiny_design(int n, int used) {
  ClusteredDesign cd;
  cd.num_smbs = n;
  cd.num_cycles = 1;
  for (int m = 0; m < n; ++m)
    for (int s = 0; s < used; ++s) cd.place.push_back({m, s});
  return cd;
}

TEST(DefectPlacement, DeadSitesAreIllegalOnlyForAffectedSmbs) {
  ArchParams arch = ArchParams::paper_instance();
  auto map = std::make_shared<DefectMap>();
  map->grid_width = map->grid_height = 2;
  map->dead_smbs.insert({0, 0});  // site 0 dead for everyone
  map->dead_les.insert({1, 0, 0});  // site 1: slot 0 dead
  arch.defects.map = map;

  // SMB 0 uses slots 0..3, SMB 1 uses none (pure feed-through block).
  ClusteredDesign cd = tiny_design(2, 4);
  cd.place.erase(
      std::remove_if(cd.place.begin(), cd.place.end(),
                     [](const LutPlacement& lp) { return lp.smb == 1; }),
      cd.place.end());
  PlaceLegality legal(cd, arch, GridSize{2, 2});
  ASSERT_TRUE(legal.active());
  EXPECT_EQ(legal.dead_smb_sites(), 1);
  EXPECT_FALSE(legal.ok(0, 0));
  EXPECT_FALSE(legal.ok(0, 1));  // dead SMB site rejects every block
  EXPECT_FALSE(legal.ok(1, 0));  // slot 0 is used by SMB 0 and dead here
  EXPECT_TRUE(legal.ok(1, 1));   // SMB 1 uses no slots: dead LE harmless
  EXPECT_TRUE(legal.ok(2, 0));
  EXPECT_TRUE(legal.ok(3, 0));
  EXPECT_TRUE(legal.feasible());
}

TEST(DefectPlacement, FitCheckFailsWhenSitesRunOut) {
  ArchParams arch = ArchParams::paper_instance();
  auto map = std::make_shared<DefectMap>();
  map->grid_width = map->grid_height = 2;
  map->dead_smbs.insert({0, 0});
  map->dead_smbs.insert({1, 0});
  map->dead_smbs.insert({0, 1});
  arch.defects.map = map;
  // 2 SMBs, 1 surviving site: no matching.
  PlaceLegality legal(tiny_design(2, 1), arch, GridSize{2, 2});
  EXPECT_FALSE(legal.feasible());
  // 1 SMB still fits.
  PlaceLegality one(tiny_design(1, 1), arch, GridSize{2, 2});
  EXPECT_TRUE(one.feasible());
}

// --- bitstream verification ------------------------------------------------

FlowOptions defect_flow_options(double rate, std::uint64_t seed) {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.arch.defects.seed = seed;
  opts.arch.defects.le_rate = rate;
  opts.arch.defects.wire_rate = rate;
  opts.arch.defects.smb_rate = rate / 4.0;
  return opts;
}

TEST(DefectFlow, EmittedBitmapNeverTouchesDefects) {
  Design design = make_benchmark("ex1");
  FlowResult r = run_nanomap(design, defect_flow_options(0.01, 1));
  ASSERT_TRUE(r.feasible) << r.message;
  RrGraph rr(r.placement.placement.grid, r.routed_arch);
  std::string why;
  EXPECT_TRUE(
      verify_bitmap_defects(r.bitmap, r.placement.placement, rr, &why))
      << why;
  EXPECT_TRUE(validate_routing(r.clustered, r.placement.placement, rr,
                               r.routing, &why))
      << why;
}

TEST(DefectFlow, VerifierFlagsConfiguredDeadResources) {
  Design design = make_benchmark("ex1");
  FlowResult r = run_nanomap(design, defect_flow_options(0.0, 0));
  ASSERT_TRUE(r.feasible) << r.message;
  const Placement& placement = r.placement.placement;

  // Declare the site under the first placed SMB dead: the (clean) bitmap
  // now configures LEs on a dead site and the verifier must say so.
  ArchParams poisoned = r.routed_arch;
  auto map = std::make_shared<DefectMap>();
  map->grid_width = placement.grid.width;
  map->grid_height = placement.grid.height;
  map->dead_smbs.insert({placement.x_of(0), placement.y_of(0)});
  poisoned.defects.map = map;
  RrGraph rr(placement.grid, poisoned);
  std::string why;
  EXPECT_FALSE(verify_bitmap_defects(r.bitmap, placement, rr, &why));
  EXPECT_NE(why.find("dead site"), std::string::npos) << why;

  // A dead LE slot that the bitmap configures is also flagged.
  ArchParams le_poisoned = r.routed_arch;
  auto le_map = std::make_shared<DefectMap>();
  le_map->grid_width = placement.grid.width;
  le_map->grid_height = placement.grid.height;
  bool found = false;
  for (int c = 0; c < r.bitmap.num_cycles && !found; ++c) {
    const CycleConfig& cycle = r.bitmap.cycles[static_cast<std::size_t>(c)];
    for (int m = 0; m < r.bitmap.num_smbs && !found; ++m) {
      const SmbConfig& smb = cycle.smbs[static_cast<std::size_t>(m)];
      for (std::size_t s = 0; s < smb.les.size() && !found; ++s) {
        if (smb.les[s].lut_used || smb.les[s].ff_write_mask != 0) {
          le_map->dead_les.insert(
              {placement.x_of(m), placement.y_of(m), static_cast<int>(s)});
          found = true;
        }
      }
    }
  }
  ASSERT_TRUE(found);
  le_poisoned.defects.map = le_map;
  RrGraph le_rr(placement.grid, le_poisoned);
  EXPECT_FALSE(verify_bitmap_defects(r.bitmap, placement, le_rr, &why));
  EXPECT_NE(why.find("dead LE slot"), std::string::npos) << why;
}

// --- end-to-end flow invariants --------------------------------------------

TEST(DefectFlow, ZeroRateEmptyMapReproducesDefectFreeFlow) {
  Design design = make_benchmark("ex1");
  FlowOptions clean_opts;
  clean_opts.arch = ArchParams::paper_instance();
  FlowResult clean = run_nanomap(design, clean_opts);
  ASSERT_TRUE(clean.feasible) << clean.message;

  // An *empty* loaded map is active (content signature, cache keys) but
  // masks nothing, so every stage must still produce identical bytes.
  FlowOptions empty_opts = clean_opts;
  auto map = std::make_shared<DefectMap>();
  map->grid_width = map->grid_height = 64;
  empty_opts.arch.defects.map = map;
  ASSERT_TRUE(empty_opts.arch.defects.active());
  FlowResult empty = run_nanomap(design, empty_opts);
  ASSERT_TRUE(empty.feasible) << empty.message;

  EXPECT_EQ(clean.placement.placement.site_of_smb,
            empty.placement.placement.site_of_smb);
  EXPECT_EQ(clean.delay_ns, empty.delay_ns);
  EXPECT_EQ(serialize_bitmap(clean.bitmap), serialize_bitmap(empty.bitmap));
}

TEST(DefectFlow, ActiveDefectsAreThreadInvariant) {
  Design design = make_benchmark("ex1");
  FlowOptions base = defect_flow_options(0.02, 3);
  base.threads = 1;
  FlowResult want = run_nanomap(design, base);
  ASSERT_TRUE(want.feasible) << want.message;

  FlowOptions threads4 = base;
  threads4.threads = 4;
  FlowResult got = run_nanomap(design, threads4);
  ASSERT_TRUE(got.feasible) << got.message;
  EXPECT_EQ(want.placement.placement.site_of_smb,
            got.placement.placement.site_of_smb);
  EXPECT_EQ(want.delay_ns, got.delay_ns);
  EXPECT_EQ(serialize_bitmap(want.bitmap), serialize_bitmap(got.bitmap));
}

// The benchmark's defect fabric (every channel halved, seeded defect map)
// is where routing dominates and folding cycles negotiate on the flow's
// pool: Biquad must map byte-identically, with the same recovery trail
// and the same trace counters and value summaries, at threads 1 and 4.
TEST(DefectFlow, HalvedChannelFabricIsThreadInvariant) {
  Design design = make_benchmark("Biquad");
  FlowOptions base;
  base.arch = ArchParams::paper_instance();
  base.arch.len1_tracks = 14;
  base.arch.len4_tracks = 7;
  base.arch.global_tracks = 4;
  base.arch.direct_links_per_side = 6;
  base.arch.defects.seed = 1;
  base.arch.defects.le_rate = 0.01;
  base.arch.defects.wire_rate = 0.01;
  base.arch.defects.smb_rate = 0.0025;
  base.collect_trace = true;
  base.threads = 1;
  FlowResult want = run_nanomap(design, base);
  ASSERT_TRUE(want.feasible) << want.message;

  FlowOptions threads4 = base;
  threads4.threads = 4;
  FlowResult got = run_nanomap(design, threads4);
  ASSERT_TRUE(got.feasible) << got.message;
  EXPECT_EQ(serialize_bitmap(want.bitmap), serialize_bitmap(got.bitmap));
  EXPECT_EQ(want.diagnostics.to_string(), got.diagnostics.to_string());

  ASSERT_EQ(want.report.counters.size(), got.report.counters.size());
  for (std::size_t i = 0; i < want.report.counters.size(); ++i) {
    EXPECT_EQ(want.report.counters[i].site, got.report.counters[i].site);
    EXPECT_EQ(want.report.counters[i].value, got.report.counters[i].value)
        << want.report.counters[i].site;
  }
  ASSERT_EQ(want.report.values.size(), got.report.values.size());
  for (std::size_t i = 0; i < want.report.values.size(); ++i) {
    const TraceValueRow& a = want.report.values[i];
    const TraceValueRow& b = got.report.values[i];
    EXPECT_EQ(a.site, b.site);
    EXPECT_EQ(a.count, b.count) << a.site;
    EXPECT_EQ(a.sum, b.sum) << a.site;
    EXPECT_EQ(a.min, b.min) << a.site;
    EXPECT_EQ(a.max, b.max) << a.site;
  }
  // Some route call really negotiated several cycles at once.
  bool concurrent = false;
  for (const TraceValueRow& v : want.report.values)
    if (v.site == "route.cycle_tasks") concurrent = v.max > 1;
  EXPECT_TRUE(concurrent);
}

TEST(DefectFlow, ImpossibleFabricYieldsTypedReject) {
  Design design = make_benchmark("ex1");
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.arch.defects.seed = 1;
  opts.arch.defects.smb_rate = 1.0;  // every SMB site dead
  FlowResult r = run_nanomap(design, opts);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.error_kind, FlowErrorKind::kDefectInfeasible);
  bool saw_typed_event = false;
  for (const FlowEvent& e : r.diagnostics.events)
    if (e.kind == FlowErrorKind::kDefectInfeasible) saw_typed_event = true;
  EXPECT_TRUE(saw_typed_event);
}

TEST(DefectFlow, TraceCountersCoverDefectSites) {
  Design design = make_benchmark("ex1");
  FlowOptions opts = defect_flow_options(0.02, 3);
  opts.collect_trace = true;
  FlowResult r = run_nanomap(design, opts);
  ASSERT_TRUE(r.feasible) << r.message;
  std::set<std::string> sites;
  for (const TraceCounterRow& row : r.report.counters)
    sites.insert(row.site);
  EXPECT_TRUE(sites.count("defect.wire_masked"));
  EXPECT_TRUE(sites.count("defect.smb_masked"));
  EXPECT_TRUE(sites.count("defect.le_masked"));
  EXPECT_TRUE(sites.count("route.defect_avoided"));
}

}  // namespace
}  // namespace nanomap
