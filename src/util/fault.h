// Deterministic fault injection for the flow's resilience tests.
//
// Stages mark recoverable failure boundaries with NM_FAULT_POINT("site");
// a FaultScope (run_nanomap installs one from FlowOptions::fault_plan,
// which the --fault CLI knob / NM_FAULT env var set) arms a plan
// "site:N[:kind]" meaning "the Nth execution of fault point `site` on
// this thread throws an exception of `kind`". Everything else about the
// run is untouched, so the sweep in tests/fault_injection_test.cc can
// prove that every stage boundary either recovers or degrades into a
// clean infeasible FlowResult — never a crash, never a lost failure
// reason.
//
// Plans and hit counts are thread-local: nothing is process-wide, so
// concurrent flow runs on different threads never fire or count each
// other's faults. This is exact because every fault point sits in
// sequential flow code (never inside a parallel_for body): all of one
// run's fault points execute on the thread that called run_nanomap, so
// the Nth hit is the Nth hit *of that run*, the same hit at any
// --threads value, and the armed flow stays byte-identical across thread
// counts. Keep it that way when adding sites.
//
// Cost when disarmed: one thread-local read per fault point, no lock, no
// string work.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/check.h"

namespace nanomap {

// What the armed fault point throws.
enum class FaultKind {
  kCheck,  // CheckError — an internal invariant violation
  kInput,  // InputError — a malformed-input style failure
  kAlloc,  // std::bad_alloc — resource exhaustion
};

const char* fault_kind_name(FaultKind kind);

struct FaultPlan {
  std::string site;        // which NM_FAULT_POINT name to target
  long nth_hit = 1;        // fire on the Nth execution (1-based)
  FaultKind kind = FaultKind::kCheck;
};

// Parses "site:N[:check|input|alloc]" (N defaults to 1 when the plan is
// just "site"). Throws InputError on malformed text.
FaultPlan parse_fault_plan(const std::string& text);

class FaultScope;

namespace internal {

// The innermost live FaultScope on this thread (null when none). constinit
// for the same reason as util/trace.h's binding: no thread_local init
// wrapper on the fast path.
extern constinit thread_local FaultScope* tls_fault_scope;

}  // namespace internal

// Arms one fault plan on the current thread for the scope's lifetime (see
// the contract above) and counts the hits of every fault point executed on
// this thread meanwhile. An empty plan string is a no-op (nothing armed,
// nothing counted), so run_nanomap can construct one unconditionally.
// Nestable; the innermost armed scope wins and restores the previous one
// on exit.
class FaultScope {
 public:
  // Throws InputError on a malformed plan or one whose site is not in
  // known_sites() (catches typos in test plans and CLI arguments before a
  // silently-armed-nowhere run).
  explicit FaultScope(const std::string& plan_text);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  // True iff a plan is armed on this thread.
  static bool armed() { return internal::tls_fault_scope != nullptr; }

  // Slow path behind NM_FAULT_POINT: counts the hit against this
  // thread's armed scope and throws when its plan matches this site's
  // Nth execution.
  static void on_hit(const char* site);

  // Hits per site on this thread since construction (sites never hit are
  // absent; always empty for a no-op scope).
  const std::map<std::string, long>& hit_counts() const { return hits_; }

  // The canonical site registry. Tests sweep this list; adding an
  // NM_FAULT_POINT with a name not listed here fails the coverage test.
  static const std::vector<std::string>& known_sites();

 private:
  bool active_ = false;
  FaultScope* previous_ = nullptr;
  FaultPlan plan_;
  std::map<std::string, long> hits_;
};

}  // namespace nanomap

// Marks one recoverable failure boundary. Near-free when nothing is
// armed; see the determinism contract above before placing one inside
// parallel code (don't).
#define NM_FAULT_POINT(site)                                   \
  do {                                                         \
    if (::nanomap::FaultScope::armed())                        \
      ::nanomap::FaultScope::on_hit(site);                     \
  } while (0)
