// Immutable shared caches for the serving layer (docs/SERVING.md).
//
// A batch of jobs usually reuses a handful of circuits and fabric
// configurations; parsing a benchmark or building an RR graph dominates
// short jobs. ServeCaches memoizes all three behind content-derived keys:
//
//   design  — keyed by the job's circuit spec string ("bench:<name>" or a
//             netlist path). Entries are shared immutably; the flow never
//             mutates a Design it was handed.
//   arch    — keyed by the *resolved content*: write_arch() of the base
//             params + the defect content signature + the raw arch/defect
//             spec strings. Two jobs naming different files with equal
//             content still key differently (the file is re-read per
//             distinct path, by design: cheap, and immune to mid-batch
//             file edits aliasing a stale entry).
//   rr      — RrGraph prototypes keyed by write_arch() + defect signature
//             + grid, plugged into FlowOptions::rr_provider. make() hands
//             out plain copies, so the prototype stays pristine.
//
// Thread safety: one mutex guards all three maps; a miss builds *under*
// the lock. That serializes concurrent first builds of the same key —
// deliberately: it guarantees exactly one miss per distinct key
// regardless of job interleaving, which keeps the hit/miss counters (and
// BENCH_serve.json) deterministic for a fixed job stream at any worker
// count. Hits are a lock + shared_ptr copy; make()'s copy of the
// immutable prototype happens after the lock is released.
//
// Determinism: cache state never leaks into response bytes. Hit/miss
// counts live in Stats and surface only in the server's stderr summary
// and the bench's BENCH_serve.json — never in a per-job response line,
// whose bytes must not depend on which sibling jobs ran first
// (docs/SERVING.md "Determinism").
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "flow/nanomap_flow.h"

namespace nanomap {

// Loads a circuit by spec: "bench:<name>" for a bundled benchmark, else a
// path dispatched by extension (.nmap/.blif/.bench/.vhd/.vhdl/.v).
// Throws InputError for unrecognized formats — shared by the CLI and the
// serving cache so both accept exactly the same circuit spec language.
Design load_design_spec(const std::string& spec);

class ServeCaches : public RrGraphProvider {
 public:
  struct Stats {
    long design_hits = 0;
    long design_misses = 0;
    long arch_hits = 0;
    long arch_misses = 0;
    long rr_hits = 0;
    long rr_misses = 0;
  };

  // Shared parsed circuit for `spec` (see load_design_spec). Throws
  // InputError on unknown formats / unparseable input.
  std::shared_ptr<const Design> design(const std::string& spec);

  // Shared resolved ArchParams: `arch_file` (may be empty) applied over
  // `base`, then `defects` (may be empty; inline rates when it contains
  // '=', else a defect-map file) applied over that. Throws InputError.
  std::shared_ptr<const ArchParams> arch(const std::string& arch_file,
                                         const std::string& defects,
                                         const ArchParams& base);

  // RrGraphProvider: a copy of the cached prototype for (grid, arch) —
  // equal to RrGraph(grid, arch).
  RrGraph make(const GridSize& grid, const ArchParams& arch) override;

  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const Design>> designs_;
  std::map<std::string, std::shared_ptr<const ArchParams>> archs_;
  std::map<std::string, std::shared_ptr<const RrGraph>> rr_graphs_;
  Stats stats_;
};

}  // namespace nanomap
