#include "util/fault.h"

#include <new>

namespace nanomap {

namespace internal {

constinit thread_local FaultScope* tls_fault_scope = nullptr;

}  // namespace internal

namespace {

void throw_fault(FaultKind kind, const std::string& what) {
  switch (kind) {
    case FaultKind::kCheck: throw CheckError(what);
    case FaultKind::kInput: throw InputError(what);
    case FaultKind::kAlloc: throw std::bad_alloc();
  }
}

void check_known_site(const std::string& site) {
  const std::vector<std::string>& sites = FaultScope::known_sites();
  for (const std::string& s : sites)
    if (s == site) return;
  throw InputError("fault plan targets unknown site '" + site + "'");
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCheck: return "check";
    case FaultKind::kInput: return "input";
    case FaultKind::kAlloc: return "alloc";
  }
  return "?";
}

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  std::size_t c1 = text.find(':');
  plan.site = text.substr(0, c1);
  if (plan.site.empty())
    throw InputError("fault plan '" + text + "': empty site name");
  if (c1 == std::string::npos) return plan;

  std::size_t c2 = text.find(':', c1 + 1);
  std::string nth = text.substr(c1 + 1, c2 == std::string::npos
                                            ? std::string::npos
                                            : c2 - c1 - 1);
  plan.nth_hit = 0;
  for (char ch : nth) {
    if (ch < '0' || ch > '9' || plan.nth_hit > 1000000)
      throw InputError("fault plan '" + text +
                       "': hit count must be a small positive integer");
    plan.nth_hit = plan.nth_hit * 10 + (ch - '0');
  }
  if (nth.empty() || plan.nth_hit < 1)
    throw InputError("fault plan '" + text +
                     "': hit count must be a positive integer");
  if (c2 == std::string::npos) return plan;

  std::string kind = text.substr(c2 + 1);
  if (kind == "check") plan.kind = FaultKind::kCheck;
  else if (kind == "input") plan.kind = FaultKind::kInput;
  else if (kind == "alloc") plan.kind = FaultKind::kAlloc;
  else
    throw InputError("fault plan '" + text + "': unknown kind '" + kind +
                     "' (expected check|input|alloc)");
  return plan;
}

const std::vector<std::string>& FaultScope::known_sites() {
  // One entry per NM_FAULT_POINT in the codebase (DESIGN.md §5e).
  static const std::vector<std::string> sites = {
      "fds.schedule",    // core/fds.cc: plane scheduling
      "cluster.verify",  // core/temporal_cluster.cc: clustering invariants
      "place.anneal",    // place/placement.cc: whole placement stage
      "route.converge",  // route/pathfinder.cc: whole-design routing
      "route.alloc",     // route/pathfinder.cc: per-cycle router setup
      "sta.analyze",     // route/sta.cc: timing analysis
      "bitmap.emit",     // bitstream/bitmap.cc: configuration emission
  };
  return sites;
}

FaultScope::FaultScope(const std::string& plan_text) {
  if (plan_text.empty()) return;
  plan_ = parse_fault_plan(plan_text);
  check_known_site(plan_.site);
  previous_ = internal::tls_fault_scope;
  internal::tls_fault_scope = this;
  active_ = true;
}

FaultScope::~FaultScope() {
  if (active_) internal::tls_fault_scope = previous_;
}

void FaultScope::on_hit(const char* site) {
  FaultScope* scope = internal::tls_fault_scope;
  const long n = ++scope->hits_[site];
  if (scope->plan_.site != site || n != scope->plan_.nth_hit) return;
  throw_fault(scope->plan_.kind,
              "injected fault at '" + scope->plan_.site + "' (hit " +
                  std::to_string(scope->plan_.nth_hit) + ")");
}

}  // namespace nanomap
