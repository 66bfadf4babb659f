// Determinism contract of the parallel flow (the guarantee that makes
// `--threads` safe): for a fixed (input, seed), the placement, the routed
// nets, and the emitted configuration bitmap are byte-identical across
// repeated runs and across thread counts — with the parallel stages
// actually engaged (multi-seed placement restarts).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "bitstream/bitmap.h"
#include "circuits/benchmarks.h"
#include "circuits/random_dag.h"
#include "core/fds.h"
#include "flow/nanomap_flow.h"
#include "map/bench_format.h"
#include "netlist/plane.h"
#include "util/thread_pool.h"

namespace nanomap {
namespace {

// Exact byte fingerprint of everything the flow emits. Doubles are added
// by memcpy so the comparison is bit-exact, not epsilon-based.
std::string fingerprint(const FlowResult& r) {
  std::string fp;
  auto add_int = [&](long long v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    fp.append(buf, sizeof v);
  };
  auto add_double = [&](double v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    fp.append(buf, sizeof v);
  };

  // Placement bytes.
  add_int(r.placement.placement.grid.width);
  add_int(r.placement.placement.grid.height);
  for (int site : r.placement.placement.site_of_smb) add_int(site);
  add_double(r.placement.cost);
  add_double(r.placement.wirelength);

  // Routed nets: topology and bit-exact delays.
  add_int(static_cast<long long>(r.routing.nets.size()));
  for (const NetRoute& nr : r.routing.nets) {
    add_int(nr.net_index);
    for (int s : nr.sink_smbs) add_int(s);
    for (double d : nr.sink_delay_ps) add_double(d);
    for (int n : nr.wire_nodes) add_int(n);
  }
  add_int(r.routing.usage.direct);
  add_int(r.routing.usage.len1);
  add_int(r.routing.usage.len4);
  add_int(r.routing.usage.global);

  // Emitted bitmap, via its stable byte serialization.
  std::vector<std::uint8_t> bytes = serialize_bitmap(r.bitmap);
  fp.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return fp;
}

FlowResult run_with(const Design& d, int threads, int restarts) {
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.seed = 42;
  opts.threads = threads;
  opts.placement.restarts = restarts;
  FlowResult r = run_nanomap(d, opts);
  EXPECT_TRUE(r.feasible) << r.message;
  return r;
}

Design s27_design() {
  return parse_bench_file(NMAP_TEST_DESIGN_DIR "/s27.bench");
}

Design random_design() {
  RandomDagSpec spec;
  spec.num_planes = 2;
  spec.luts_per_plane = 45;
  spec.depth = 6;
  spec.regs_per_plane = 6;
  spec.seed = 1234;
  return make_random_design(spec);
}

// The full matrix for one design: repeatability at fixed thread counts,
// plus byte-equality across threads in {1, 2, 4}, with the parallel
// machinery engaged (3 placement restarts).
void expect_thread_invariant(const Design& d) {
  const int kRestarts = 3;
  std::string t1 = fingerprint(run_with(d, 1, kRestarts));
  std::string t1_again = fingerprint(run_with(d, 1, kRestarts));
  EXPECT_EQ(t1, t1_again) << "threads=1 not repeatable";

  std::string t2 = fingerprint(run_with(d, 2, kRestarts));
  std::string t4 = fingerprint(run_with(d, 4, kRestarts));
  std::string t4_again = fingerprint(run_with(d, 4, kRestarts));
  EXPECT_EQ(t4, t4_again) << "threads=4 not repeatable";
  EXPECT_EQ(t1, t2) << "threads=2 diverged from threads=1";
  EXPECT_EQ(t1, t4) << "threads=4 diverged from threads=1";
}

TEST(Determinism, S27AcrossRunsAndThreadCounts) {
  expect_thread_invariant(s27_design());
}

// Golden pin of the incremental bounding-box cost kernel: the annealer's
// cached-bbox deltas are integer-exact reproductions of a from-scratch
// recompute, so the whole flow output must stay *byte identical*. These
// FNV-1a hashes of the full fingerprint were captured from the pre-kernel
// binary (threads and restarts must not matter either — every cell of
// the matrix pins the same value), re-captured at default router options
// when the rip-up batch option was removed, and re-captured once more
// when the placement objective became fixed point (net weights quantized
// to multiples of 2^-20; s27 kept its hash).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Determinism, GoldenFingerprintAcrossThreadsAndRestarts) {
  struct Case {
    const char* name;
    Design design;
    std::uint64_t want;
  };
  Case cases[] = {
      {"s27", s27_design(), 0x1ecc1e36737c91f0ull},
      {"random-dag", random_design(), 0x7ab206ec7fe5d996ull},
  };
  for (const Case& c : cases) {
    for (int threads : {1, 4}) {
      for (int restarts : {1, 4}) {
        std::uint64_t got =
            fnv1a(fingerprint(run_with(c.design, threads, restarts)));
        EXPECT_EQ(got, c.want)
            << c.name << " diverged from the pre-incremental-kernel binary"
            << " at threads=" << threads << " restarts=" << restarts;
      }
    }
  }
}

TEST(Determinism, RandomDagAcrossRunsAndThreadCounts) {
  expect_thread_invariant(random_design());
}

// Golden pin of the incremental FDS scheduling kernel: per-plane schedules
// of every bundled paper circuit at folding levels 1 and 2, hashed
// byte-exactly. The hashes were captured from the pre-kernel from-scratch
// scheduler, and must not move.
std::uint64_t schedule_fingerprint(const Design& d, int level) {
  CircuitParams p = extract_circuit_params(d.net);
  FoldingConfig cfg = make_folding_config(p, level);
  ArchParams arch = ArchParams::paper_instance_unbounded_k();
  std::string fp;
  auto add_int = [&fp](long long v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    fp.append(buf, sizeof v);
  };
  for (int plane = 0; plane < p.num_plane; ++plane) {
    PlaneScheduleGraph g = build_schedule_graph(d, plane, cfg);
    FdsResult r = schedule_plane(g, arch);
    add_int(g.num_stages);
    add_int(r.feasible ? 1 : 0);
    for (int s : r.stage_of) add_int(s);
    add_int(r.max_le);
  }
  return fnv1a(fp);
}

TEST(Determinism, GoldenScheduleFingerprints) {
  struct Case {
    const char* name;
    int level;
    std::uint64_t want;
  };
  const Case cases[] = {
      {"ex1", 1, 0x418e4acd8cf1b0e2ull},   {"ex1", 2, 0x7a6a953eec79d609ull},
      {"FIR", 1, 0x0eb8d160fa3b279eull},   {"FIR", 2, 0x7cb5ccddde35fd68ull},
      {"ex2", 1, 0xef4364047217818full},   {"ex2", 2, 0x27fdf25dcf85effdull},
      {"c5315", 1, 0x3dd45a268fae6420ull}, {"c5315", 2, 0x257443151e108529ull},
      {"Biquad", 1, 0x3ad66958b0003531ull},
      {"Biquad", 2, 0x3b59a5aafe2f7c87ull},
      {"Paulin", 1, 0x52f3464aa5e65110ull},
      {"Paulin", 2, 0x43fd2a7494c9d1ddull},
      {"ASPP4", 1, 0x08ab879bd3f3f42cull},
      {"ASPP4", 2, 0x9a094a3849776469ull},
  };
  for (const Case& c : cases) {
    Design d = make_benchmark(c.name);
    EXPECT_EQ(schedule_fingerprint(d, c.level), c.want)
        << c.name << " level " << c.level
        << " diverged from the from-scratch scheduler";
  }
}

// Golden pin of the default-options flow on the seven paper circuits. The
// hashes were captured from the binary that scheduled and clustered every
// candidate folding level before ranking them by AT product (the lazy
// level search emitted the same bytes), and re-captured when the
// placement objective became fixed point. The flow/schedule call counts pin
// the laziness itself: a return to eager ranking schedules 15-23 levels
// per circuit.
TEST(Determinism, PaperCircuitGoldensWithLazyLevelSearch) {
  struct Case {
    const char* name;
    std::uint64_t want;
    long schedule_calls;
  };
  const Case cases[] = {
      {"ex1", 0x21ae68e8cf7e70ccull, 1},
      {"FIR", 0x78a16ea3487f8f53ull, 2},
      {"ex2", 0x4b6afdd47bfa9fb6ull, 4},
      {"c5315", 0xe20db2d17b3cdabfull, 5},
      {"Biquad", 0xddab0f6af84a78b0ull, 3},
      {"Paulin", 0x365fdae17f0c258aull, 2},
      {"ASPP4", 0xe15f576c5029ffcbull, 2},
  };
  for (const Case& c : cases) {
    FlowOptions opts;
    opts.collect_trace = true;
    FlowResult r = run_nanomap(make_benchmark(c.name), opts);
    ASSERT_TRUE(r.feasible) << c.name << ": " << r.message;
    const std::uint64_t got = fnv1a(fingerprint(r));
    EXPECT_EQ(got, c.want) << c.name << " output changed: got 0x" << std::hex
                           << got;
    long schedule_calls = 0;
    for (const TraceSpan& s : r.report.stages)
      if (s.name == "flow/schedule") schedule_calls = s.calls;
    EXPECT_EQ(schedule_calls, c.schedule_calls) << c.name;
  }
}

TEST(Determinism, DefaultSerialConfigUnaffectedByThreads) {
  // restarts=1 is the historical serial flow; adding threads must not
  // change a single byte of it.
  Design d = s27_design();
  std::string serial = fingerprint(run_with(d, 1, 1));
  std::string pooled = fingerprint(run_with(d, 4, 1));
  EXPECT_EQ(serial, pooled);
}

TEST(Determinism, MoreRestartsNeverWorsenPlacementCost) {
  // Restart 0 always anneals with the base seed stream, so widening the
  // portfolio can only match or beat the single-chain cost. The winner is
  // re-derived each run (reproducible) and thread-count invariant.
  Design d = random_design();
  FlowOptions fo;
  fo.arch = ArchParams::paper_instance();
  fo.run_physical = false;  // just need the clustered design
  FlowResult r = run_nanomap(d, fo);
  ASSERT_TRUE(r.feasible) << r.message;

  ThreadPool pool2(2);
  ThreadPool pool1(1);
  PlacementOptions po;
  po.seed = 42;
  po.restarts = 1;
  PlacementResult p1 = place_design(r.clustered, fo.arch, po, &pool2);
  po.restarts = 3;
  PlacementResult p3 = place_design(r.clustered, fo.arch, po, &pool2);
  EXPECT_LE(p3.cost, p1.cost);

  PlacementResult p3_again = place_design(r.clustered, fo.arch, po, &pool2);
  EXPECT_EQ(p3.placement.site_of_smb, p3_again.placement.site_of_smb);
  EXPECT_EQ(p3.winning_restart, p3_again.winning_restart);

  PlacementResult p3_serial = place_design(r.clustered, fo.arch, po, &pool1);
  EXPECT_EQ(p3.placement.site_of_smb, p3_serial.placement.site_of_smb);
  EXPECT_EQ(p3.winning_restart, p3_serial.winning_restart);
  PlacementResult p3_nopool = place_design(r.clustered, fo.arch, po, nullptr);
  EXPECT_EQ(p3.placement.site_of_smb, p3_nopool.placement.site_of_smb);
}

TEST(Determinism, SeedChangesTheResult) {
  // Sanity check that the fingerprint is sensitive at all: different
  // seeds should give different placements on a non-trivial design.
  Design d = random_design();
  FlowOptions opts;
  opts.arch = ArchParams::paper_instance();
  opts.threads = 2;
  opts.seed = 42;
  FlowResult a = run_nanomap(d, opts);
  opts.seed = 43;
  FlowResult b = run_nanomap(d, opts);
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

}  // namespace
}  // namespace nanomap
