#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "circuits/benchmarks.h"
#include "circuits/random_dag.h"
#include "map/bench_format.h"
#include "map/flowmap.h"
#include "netlist/simulate.h"
#include "util/rng.h"

namespace nanomap {
namespace {

// Verifies the mapped LUT network computes the same outputs as the gate
// network on the given number of input vectors (exhaustive when the input
// count allows, pseudo-random otherwise).
void expect_equivalent(const GateNetwork& g, const FlowMapResult& mapped,
                       int max_vectors = 256) {
  Simulator sim(mapped.net);
  std::vector<int> lut_inputs;
  std::vector<int> lut_outputs;
  for (int id = 0; id < mapped.net.size(); ++id) {
    if (mapped.net.node(id).kind == NodeKind::kInput)
      lut_inputs.push_back(id);
    if (mapped.net.node(id).kind == NodeKind::kOutput)
      lut_outputs.push_back(id);
  }
  ASSERT_EQ(static_cast<int>(lut_inputs.size()), g.num_inputs());
  ASSERT_EQ(static_cast<int>(lut_outputs.size()), g.num_outputs());

  const int n = g.num_inputs();
  const bool exhaustive = n <= 12 && (1 << n) <= max_vectors;
  const int vectors = exhaustive ? (1 << n) : max_vectors;
  Rng rng(99);
  for (int v = 0; v < vectors; ++v) {
    std::vector<bool> in(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      in[static_cast<std::size_t>(i)] =
          exhaustive ? ((v >> i) & 1) != 0 : rng.next_bool();
    }
    std::vector<bool> gate_out = g.evaluate(in);
    for (int i = 0; i < n; ++i)
      sim.set_input(lut_inputs[static_cast<std::size_t>(i)],
                    in[static_cast<std::size_t>(i)]);
    sim.evaluate();
    for (std::size_t o = 0; o < lut_outputs.size(); ++o) {
      ASSERT_EQ(sim.value(lut_outputs[o]), gate_out[o])
          << "vector " << v << " output " << o;
    }
  }
}

TEST(FlowMap, SingleGate) {
  GateNetwork g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  g.add_output("o", g.add_gate(GateOp::kNand, "g", {a, b}));
  FlowMapResult r = flowmap(g, 4);
  EXPECT_EQ(r.num_luts, 1);
  EXPECT_EQ(r.depth, 1);
  expect_equivalent(g, r);
}

TEST(FlowMap, CollapsesSmallConeIntoOneLut) {
  // 3-input cone of 2-input gates fits a single 4-LUT.
  GateNetwork g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  int c = g.add_input("c");
  int t1 = g.add_gate(GateOp::kAnd, "t1", {a, b});
  int t2 = g.add_gate(GateOp::kOr, "t2", {t1, c});
  int t3 = g.add_gate(GateOp::kXor, "t3", {t2, a});
  g.add_output("o", t3);
  FlowMapResult r = flowmap(g, 4);
  EXPECT_EQ(r.depth, 1);
  EXPECT_EQ(r.num_luts, 1);
  expect_equivalent(g, r);
}

TEST(FlowMap, DepthOptimalOnBalancedXorTree) {
  // 16-input XOR tree: depth-optimal 4-LUT mapping has depth 2.
  GateNetwork g;
  std::vector<int> layer;
  for (int i = 0; i < 16; ++i) layer.push_back(g.add_input("i"));
  while (layer.size() > 1) {
    std::vector<int> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(g.add_gate(GateOp::kXor, "x", {layer[i], layer[i + 1]}));
    layer = next;
  }
  g.add_output("o", layer[0]);
  FlowMapResult r = flowmap(g, 4);
  EXPECT_EQ(r.depth, 2);
  expect_equivalent(g, r, 512);
}

TEST(FlowMap, AdderChainEquivalence) {
  GateNetwork g;
  Bus a, b;
  for (int i = 0; i < 4; ++i) a.push_back(g.add_input("a"));
  for (int i = 0; i < 4; ++i) b.push_back(g.add_input("b"));
  int cout = -1;
  Bus sum = build_gate_adder(g, a, b, "add", &cout);
  for (int bit : sum) g.add_output("s", bit);
  g.add_output("c", cout);
  FlowMapResult r = flowmap(g, 4);
  expect_equivalent(g, r);
  // A 4-bit ripple adder in 4-LUTs needs depth <= 4 and FlowMap should not
  // exceed the trivial per-gate mapping depth.
  EXPECT_LE(r.depth, 4);
  EXPECT_GE(r.depth, 2);
}

TEST(FlowMap, LabelsAreMonotoneAlongEdges) {
  GateNetwork g = make_random_gates(10, 120, 6, 42);
  FlowMapResult r = flowmap(g, 4);
  for (int id = 0; id < g.size(); ++id) {
    const Gate& gate = g.gate(id);
    if (gate.op == GateOp::kInput) {
      EXPECT_EQ(r.labels[static_cast<std::size_t>(id)], 0);
      continue;
    }
    for (int f : gate.fanins) {
      EXPECT_GE(r.labels[static_cast<std::size_t>(id)],
                r.labels[static_cast<std::size_t>(f)]);
    }
  }
}

TEST(FlowMap, MappedDepthEqualsMaxOutputLabel) {
  GateNetwork g = make_random_gates(12, 150, 8, 7);
  FlowMapResult r = flowmap(g, 4);
  int max_label = 0;
  for (int po : g.output_ids())
    max_label = std::max(max_label, r.labels[static_cast<std::size_t>(po)]);
  EXPECT_EQ(r.depth, max_label);
}

TEST(FlowMap, FaninBoundRespected) {
  GateNetwork g = make_random_gates(14, 200, 8, 13);
  for (int k = 2; k <= 6; ++k) {
    FlowMapResult r = flowmap(g, k);
    for (const LutNode& n : r.net.nodes()) {
      if (n.kind == NodeKind::kLut) {
        EXPECT_LE(static_cast<int>(n.fanins.size()), k);
      }
    }
  }
}

TEST(FlowMap, LargerKNeverIncreasesDepth) {
  GateNetwork g = make_random_gates(12, 180, 6, 21);
  int prev_depth = 1 << 20;
  for (int k = 2; k <= 6; ++k) {
    FlowMapResult r = flowmap(g, k);
    EXPECT_LE(r.depth, prev_depth) << "k=" << k;
    prev_depth = r.depth;
  }
}

class FlowMapRandomEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FlowMapRandomEquivalence, RandomNetworksMatch) {
  std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  GateNetwork g = make_random_gates(10, 80 + GetParam() * 17, 5, seed);
  FlowMapResult r = flowmap(g, 4);
  expect_equivalent(g, r, 1024);
  // Mapping never expands LUT count beyond gate count.
  EXPECT_LE(r.num_luts, g.num_logic_gates());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowMapRandomEquivalence,
                         ::testing::Range(1, 13));

TEST(FlowMap, RejectsUnsupportedK) {
  GateNetwork g;
  int a = g.add_input("a");
  g.add_output("o", g.add_gate(GateOp::kNot, "n", {a}));
  EXPECT_THROW(flowmap(g, 1), CheckError);
  EXPECT_THROW(flowmap(g, 7), CheckError);
}

TEST(FlowMap, PlaneParameterPropagates) {
  GateNetwork g;
  int a = g.add_input("a");
  int b = g.add_input("b");
  g.add_output("o", g.add_gate(GateOp::kAnd, "g", {a, b}));
  FlowMapResult r = flowmap(g, 4, /*plane=*/2);
  for (const LutNode& n : r.net.nodes()) {
    if (n.kind == NodeKind::kLut) {
      EXPECT_EQ(n.plane, 2);
    }
  }
}

// FNV-1a over the mapped result: every label, then every node's kind,
// name, fanins and truth table. Pinned values below were taken before the
// labelling and covering were rewritten without per-gate allocation; any
// change to a cut, a label or a truth table changes them.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  void add_net(const LutNetwork& net) {
    add(static_cast<std::uint64_t>(net.size()));
    for (const LutNode& n : net.nodes()) {
      add(static_cast<std::uint64_t>(n.kind));
      add(n.name);
      add(static_cast<std::uint64_t>(n.fanins.size()));
      for (int f : n.fanins) add(static_cast<std::uint64_t>(f));
      add(n.truth);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t fingerprint(const FlowMapResult& r) {
  Fingerprint fp;
  fp.add(static_cast<std::uint64_t>(r.labels.size()));
  for (int l : r.labels) fp.add(static_cast<std::uint64_t>(l));
  fp.add_net(r.net);
  return fp.value();
}

TEST(FlowMap, C5315FingerprintsArePinned) {
  const GateNetwork g = make_c5315_gates();
  const std::map<int, std::uint64_t> want = {
      {3, 0xe1527858a275e354ull},
      {4, 0xcab415b1f47ffb62ull},
      {5, 0xa29fe2eadfd9586cull},
      {6, 0x31288cf50f104275ull},
  };
  for (const auto& [k, fp] : want) {
    const std::uint64_t got = fingerprint(flowmap(g, k));
    EXPECT_EQ(got, fp) << "k=" << k << " got 0x" << std::hex << got;
  }
}

TEST(FlowMap, RandomNetworkFingerprintsArePinned) {
  // make_random_gates(12, 180, 6, seed) at k = 2..6 for two seeds.
  const std::uint64_t want[2][5] = {
      {0xf7119d55d020b501ull, 0xa390d578a2876429ull, 0x2d89e7409488e57aull,
       0x1f0859305426e256ull, 0x0485d45a5c58425eull},
      {0xf63769e379387a68ull, 0x6febef96c9a6e5d7ull, 0x2aa4006790799522ull,
       0x998bcd1be85c2f54ull, 0x59e18139f14154cfull},
  };
  for (int s = 0; s < 2; ++s) {
    const GateNetwork g =
        make_random_gates(12, 180, 6, static_cast<std::uint64_t>(21 + s));
    for (int k = 2; k <= 6; ++k) {
      const std::uint64_t got = fingerprint(flowmap(g, k));
      EXPECT_EQ(got, want[s][k - 2])
          << "seed " << 21 + s << " k=" << k << " got 0x" << std::hex << got;
    }
  }
}

TEST(FlowMap, ExampleBenchFingerprintsArePinned) {
  // Every gate-level example goes through FlowMap at k = 4 (parse_bench
  // maps the combinational core and stitches the flip-flops back); the
  // elaborated network is fingerprinted. A new .bench/.blif example must
  // be pinned here too.
  const std::map<std::string, std::uint64_t> want = {
      {"s27.bench", 0x11872dc134045d0full},
  };
  std::vector<std::string> found;
  for (const auto& e :
       std::filesystem::directory_iterator(NMAP_TEST_DESIGN_DIR)) {
    const std::string ext = e.path().extension().string();
    if (ext == ".bench" || ext == ".blif")
      found.push_back(e.path().filename().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> pinned;
  for (const auto& [name, fp] : want) pinned.push_back(name);
  EXPECT_EQ(found, pinned);
  for (const auto& [name, fp] : want) {
    const Design d =
        parse_bench_file(std::string(NMAP_TEST_DESIGN_DIR) + "/" + name, 4);
    Fingerprint got;
    got.add_net(d.net);
    EXPECT_EQ(got.value(), fp) << name << " got 0x" << std::hex
                               << got.value();
  }
}

// Brute-force oracle for the labelling's cuts on small cones. Every logic
// gate is also made a primary output, so each one is covered and its LUT's
// fanins are exactly its recorded cut (outputs do not change any label).
// For a gate t with p = max fanin label >= 1, the sink set is t plus every
// cone node labelled p; each subset C of the other cone nodes is tried as
// a node cut (no path from a primary input to the sink set avoids C).
// FlowMap must record a minimum cut when it has at most k nodes (label p),
// and of those the one closest to the inputs, i.e. the one whose covered
// cone (the non-sink nodes neither cut nor reachable around the cut) is
// the largest; otherwise label p + 1 and the trivial cut.
TEST(FlowMap, CutsMatchBruteForceOracleOnSmallCones) {
  constexpr int kMaxFree = 14;
  int checked = 0, min_cuts = 0, trivial = 0;
  for (int seed = 1; seed <= 8; ++seed) {
    GateNetwork g = make_random_gates(5, 24 + 2 * seed, 2,
                                      static_cast<std::uint64_t>(seed));
    const int num_nodes = g.size();
    for (int id = 0; id < num_nodes; ++id) {
      const GateOp op = g.gate(id).op;
      if (op != GateOp::kInput && op != GateOp::kOutput)
        g.add_output("o_" + g.gate(id).name, id);
    }
    std::map<std::string, int> id_of;
    for (int id = 0; id < num_nodes; ++id) id_of[g.gate(id).name] = id;
    std::vector<std::vector<int>> fanouts(static_cast<std::size_t>(num_nodes));
    for (int id = 0; id < num_nodes; ++id)
      for (int f : g.gate(id).fanins)
        fanouts[static_cast<std::size_t>(f)].push_back(id);

    for (int k = 2; k <= 5; ++k) {
      const FlowMapResult r = flowmap(g, k);
      // Gate id -> the LUT that covers it.
      std::vector<int> lut_of(static_cast<std::size_t>(num_nodes), -1);
      for (int lid = 0; lid < r.net.size(); ++lid) {
        const LutNode& n = r.net.node(lid);
        if (n.kind == NodeKind::kLut)
          lut_of[static_cast<std::size_t>(id_of.at(n.name))] = lid;
      }
      auto label = [&](int v) { return r.labels[static_cast<std::size_t>(v)]; };

      for (int t = 0; t < num_nodes; ++t) {
        const Gate& gt = g.gate(t);
        if (gt.op == GateOp::kInput || gt.op == GateOp::kOutput) continue;
        const int lut = lut_of[static_cast<std::size_t>(t)];
        ASSERT_NE(lut, -1) << gt.name;
        std::vector<int> cut;
        for (int f : r.net.node(lut).fanins)
          cut.push_back(id_of.at(r.net.node(f).name));
        std::sort(cut.begin(), cut.end());
        std::vector<int> fanins = gt.fanins;
        std::sort(fanins.begin(), fanins.end());
        fanins.erase(std::unique(fanins.begin(), fanins.end()), fanins.end());

        int p = 0;
        for (int f : gt.fanins) p = std::max(p, label(f));
        if (p == 0) {
          EXPECT_EQ(label(t), 1) << gt.name;
          EXPECT_EQ(cut, fanins) << gt.name;
          continue;
        }
        // Cone of t, split into the sink set and the free nodes.
        std::vector<char> in_cone(static_cast<std::size_t>(num_nodes), 0);
        std::vector<int> stack{t};
        in_cone[static_cast<std::size_t>(t)] = 1;
        std::vector<int> free_nodes;
        while (!stack.empty()) {
          const int v = stack.back();
          stack.pop_back();
          if (v != t && label(v) != p) free_nodes.push_back(v);
          for (int f : g.gate(v).fanins) {
            if (in_cone[static_cast<std::size_t>(f)]) continue;
            in_cone[static_cast<std::size_t>(f)] = 1;
            stack.push_back(f);
          }
        }
        if (static_cast<int>(free_nodes.size()) > kMaxFree) continue;
        std::sort(free_nodes.begin(), free_nodes.end());
        const int m = static_cast<int>(free_nodes.size());
        auto is_sink = [&](int v) { return v == t || label(v) == p; };

        // Every subset of the free nodes is tried as a cut. The smallest
        // ones that no input path leaks around are kept, each with its
        // source side: the cut plus the free nodes an input reaches.
        int best_size = m + 1;
        std::vector<std::uint32_t> best;  // min cuts
        std::vector<std::uint32_t> best_side;
        for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
          const int size = std::popcount(mask);
          if (size > best_size) continue;
          std::vector<char> reach(static_cast<std::size_t>(num_nodes), 0);
          std::vector<int> work;
          auto cut_has = [&](int v) {
            auto it = std::lower_bound(free_nodes.begin(), free_nodes.end(), v);
            return (mask >> (it - free_nodes.begin())) & 1u;
          };
          for (int v : free_nodes) {
            if (g.gate(v).op == GateOp::kInput && !cut_has(v)) {
              reach[static_cast<std::size_t>(v)] = 1;
              work.push_back(v);
            }
          }
          bool leaks = false;
          while (!work.empty() && !leaks) {
            const int v = work.back();
            work.pop_back();
            for (int w : fanouts[static_cast<std::size_t>(v)]) {
              if (!in_cone[static_cast<std::size_t>(w)]) continue;
              if (is_sink(w)) {
                leaks = true;
                break;
              }
              if (reach[static_cast<std::size_t>(w)] || cut_has(w)) continue;
              reach[static_cast<std::size_t>(w)] = 1;
              work.push_back(w);
            }
          }
          if (leaks) continue;
          std::uint32_t side = mask;
          for (int i = 0; i < m; ++i)
            if (reach[static_cast<std::size_t>(
                    free_nodes[static_cast<std::size_t>(i)])])
              side |= 1u << i;
          if (size < best_size) {
            best_size = size;
            best.clear();
            best_side.clear();
          }
          best.push_back(mask);
          best_side.push_back(side);
        }
        ASSERT_FALSE(best.empty()) << gt.name;  // all free nodes always cut
        ++checked;
        if (best_size > k) {
          ++trivial;
          EXPECT_EQ(label(t), p + 1) << gt.name << " k=" << k;
          EXPECT_EQ(cut, fanins) << gt.name << " k=" << k;
          continue;
        }
        ++min_cuts;
        EXPECT_EQ(label(t), p) << gt.name << " k=" << k;
        // The min cut closest to the inputs: its source side is inside
        // every other min cut's, so its covered cone holds theirs.
        std::size_t closest = 0;
        for (std::size_t i = 1; i < best.size(); ++i)
          if (std::popcount(best_side[i]) <
              std::popcount(best_side[closest]))
            closest = i;
        for (std::uint32_t side : best_side)
          ASSERT_EQ(best_side[closest] & ~side, 0u) << gt.name << " k=" << k;
        std::vector<int> want_cut;
        for (int i = 0; i < m; ++i)
          if ((best[closest] >> i) & 1u)
            want_cut.push_back(free_nodes[static_cast<std::size_t>(i)]);
        EXPECT_EQ(cut, want_cut) << gt.name << " k=" << k;
        EXPECT_LE(static_cast<int>(cut.size()), k);
      }
    }
  }
  // The sweep must exercise both outcomes on enough cones to mean anything.
  EXPECT_GE(checked, 600);
  EXPECT_GE(min_cuts, 400);
  EXPECT_GE(trivial, 100);
}

}  // namespace
}  // namespace nanomap
