// Seeded defect model for the nanotube fabric (ROADMAP: defect-tolerant
// mapping; cf. the CMOL SAT cell-assignment paper in PAPERS.md).
//
// Real NRAM/nanowire substrates ship imperfect: dead LEs, stuck SMB
// sites, broken wire tracks. A DefectSpec describes such a fabric either
// *generatively* — a seed plus per-resource Bernoulli rates, with every
// site's fate decided by a pure integer hash so any (seed, rates, grid)
// yields the same defects on every platform and thread count — or
// *explicitly*, via a small text map (`defect_map v1`, see
// docs/FORMATS.md). The spec rides on ArchParams; downstream stages
// (RR-graph capacity masking, placement legality, bitstream
// verification) query it through the pure functions below.
//
// Determinism contract: a spec with all rates zero and no loaded map is
// inactive and must leave every stage byte-identical to the defect-free
// flow. An *active* spec's content signature joins the serving caches'
// fabric keys, so no cached graph crosses a differing defect mask.
//
// This header is included by arch/nature.h; it must not include it back.
// All queries therefore take plain ints and the local wire-kind enum.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

namespace nanomap {

// Wire channel families, mirroring RrType's routing kinds.
enum class DefectWireKind : std::uint8_t {
  kDirect = 0,  // dir: 0=e 1=w 2=n 3=s
  kLen1 = 1,    // dir: 0=h 1=v
  kLen4 = 2,    // dir: 0=h 1=v
  kGlobal = 3,  // dir: 0=h (row line) 1=v (column line)
};

// An explicit defect list, as parsed from the text format. Coordinates
// are validated against the declared grid at parse time; a map applied
// to a *smaller* placement grid simply has its out-of-range entries
// never queried.
struct DefectMap {
  int grid_width = 0;
  int grid_height = 0;
  std::set<std::pair<int, int>> dead_smbs;                 // (x, y)
  std::set<std::tuple<int, int, int>> dead_les;            // (x, y, slot)
  // (kind, x, y, dir) -> broken track count (>= 1).
  std::map<std::tuple<int, int, int, int>, int> broken_wires;
};

struct DefectSpec {
  std::uint64_t seed = 0;
  double le_rate = 0.0;
  double smb_rate = 0.0;
  double wire_rate = 0.0;
  // When set, the explicit map is the sole defect source (rates ignored).
  std::shared_ptr<const DefectMap> map;

  bool active() const {
    return map != nullptr || le_rate > 0.0 || smb_rate > 0.0 ||
           wire_rate > 0.0;
  }

  // Deterministic signature over everything that influences defect
  // queries. Zero for inactive specs, so any two inactive specs compare
  // equal regardless of their (unused) seeds.
  std::uint64_t content_sig() const;

  // Throws CheckError on out-of-range rates.
  void validate() const;
};

// Pure defect queries. Generated fates come from an integer hash of
// (seed, resource kind, coordinates); explicit maps do a set lookup.
bool defect_smb_dead(const DefectSpec& spec, int x, int y);
bool defect_le_dead(const DefectSpec& spec, int x, int y, int slot);
// Number of broken tracks in the channel (kind, x, y, dir) out of
// `tracks` physical tracks. Monotone in `tracks` for both generated and
// loaded specs: widening a channel never loses a surviving track, so a
// channel-bump rung never has less capacity than the rung before it.
int defect_broken_tracks(const DefectSpec& spec, DefectWireKind kind, int x,
                         int y, int dir, int tracks);

// Text map format (docs/FORMATS.md):
//   defect_map v1
//   grid 8 8
//   smb 3 4
//   le 2 1 7
//   wire len1 2 3 h 2
// Throws InputError with line diagnostics on malformed input,
// duplicates, or out-of-grid coordinates.
DefectSpec parse_defect_map(const std::string& text);
DefectSpec parse_defect_map_file(const std::string& path);

// Inline generative spec, e.g. "seed=7,le=0.01,smb=0.005,wire=0.02"
// (any subset of keys; unknown keys are errors). Throws InputError.
DefectSpec parse_defect_rates(const std::string& csv);

// Round-trippable serialization of an explicit map.
std::string write_defect_map(const DefectMap& map);

}  // namespace nanomap
