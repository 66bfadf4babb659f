#include "serve/cache.h"

#include <utility>

#include "util/trace.h"

#include "arch/arch_file.h"
#include "arch/defect.h"
#include "circuits/benchmarks.h"
#include "map/bench_format.h"
#include "rtl/blif.h"
#include "rtl/parser.h"
#include "rtl/verilog.h"
#include "rtl/vhdl.h"

namespace nanomap {
namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// '\x1f' (unit separator) never appears in arch text, paths, or specs, so
// concatenated key parts can never alias across part boundaries.
constexpr char kKeySep = '\x1f';

std::string arch_content_key(const ArchParams& arch) {
  return write_arch(arch) + kKeySep +
         std::to_string(arch.defects.content_sig());
}

}  // namespace

Design load_design_spec(const std::string& spec) {
  if (spec.rfind("bench:", 0) == 0) return make_benchmark(spec.substr(6));
  if (ends_with(spec, ".nmap")) return parse_nmap_file(spec);
  if (ends_with(spec, ".blif")) return parse_blif_file(spec);
  if (ends_with(spec, ".bench")) return parse_bench_file(spec);
  if (ends_with(spec, ".vhd") || ends_with(spec, ".vhdl"))
    return parse_vhdl_file(spec);
  if (ends_with(spec, ".v")) return parse_verilog_file(spec);
  throw InputError("unrecognized input format: " + spec +
                   " (expected .nmap/.blif/.vhd or bench:<name>)");
}

std::shared_ptr<const Design> ServeCaches::design(const std::string& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = designs_.find(spec);
  if (it != designs_.end()) {
    ++stats_.design_hits;
    return it->second;
  }
  ++stats_.design_misses;
  auto loaded = std::make_shared<const Design>(load_design_spec(spec));
  designs_.emplace(spec, loaded);
  return loaded;
}

std::shared_ptr<const ArchParams> ServeCaches::arch(
    const std::string& arch_file, const std::string& defects,
    const ArchParams& base) {
  // The raw spec strings join the key because they are resolved lazily:
  // equal-content files at different paths may cache twice (harmless),
  // but one path can never alias another's resolution.
  const std::string key = arch_content_key(base) + kKeySep + arch_file +
                          kKeySep + defects;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = archs_.find(key);
  if (it != archs_.end()) {
    ++stats_.arch_hits;
    return it->second;
  }
  ++stats_.arch_misses;
  ArchParams resolved =
      arch_file.empty() ? base : parse_arch_file(arch_file, base);
  if (!defects.empty())
    resolved.defects = defects.find('=') != std::string::npos
                           ? parse_defect_rates(defects)
                           : parse_defect_map_file(defects);
  auto built = std::make_shared<const ArchParams>(std::move(resolved));
  archs_.emplace(key, built);
  return built;
}

RrGraph ServeCaches::make(const GridSize& grid, const ArchParams& arch) {
  const std::string key = arch_content_key(arch) + kKeySep +
                          std::to_string(grid.width) + "x" +
                          std::to_string(grid.height);
  std::shared_ptr<const RrGraph> prototype;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = rr_graphs_.find(key);
    if (it != rr_graphs_.end()) {
      ++stats_.rr_hits;
      prototype = it->second;
    } else {
      ++stats_.rr_misses;
      // make() runs inside the flow, under a traced job's collector. The
      // constructor records defect.wire_masked, so build unbound: only
      // the one job that misses would see it, and which job that is
      // depends on its siblings — it must not reach the job's report.
      TraceScope unbind(nullptr);
      prototype = std::make_shared<const RrGraph>(grid, arch);
      rr_graphs_.emplace(key, prototype);
    }
  }
  // The prototype is immutable, so concurrent jobs copy it in parallel.
  return *prototype;
}

ServeCaches::Stats ServeCaches::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace nanomap
