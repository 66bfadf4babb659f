// The byte fingerprint the golden flow hashes are pinned on, shared by
// tests/determinism_test.cc and tests/trace_test.cc so one definition
// gates both files.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bitstream/bitmap.h"
#include "flow/nanomap_flow.h"

namespace nanomap {

// Exact byte fingerprint of everything the flow emits. Doubles are added
// by memcpy so the comparison is bit-exact, not epsilon-based.
inline std::string fingerprint(const FlowResult& r) {
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

// FNV-1a, the hash the golden fingerprints are pinned as.
inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace nanomap
