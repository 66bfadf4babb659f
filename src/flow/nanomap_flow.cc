#include "flow/nanomap_flow.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "util/fault.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/trace.h"

namespace nanomap {
namespace {

// Bounds of the recovery ladder (DESIGN.md §5e): widened routing channels
// with raised router budgets on the same placement, then re-seeded
// placements that climb the same ladder; after every level fails, a final
// no-folding attempt.
constexpr int kChannelBumpRungs = 2;
constexpr double kChannelBumpFactor = 1.25;  // per channel rung
constexpr int kPlacementReseeds = 1;

// Seed-stream base for the re-seeded placements of the recovery ladder,
// far away from the restart streams place_design derives itself.
constexpr std::uint64_t kReseedStreamBase = 0x5eedu;

// A scheduled + clustered candidate at one folding level — the unit the
// level search evaluates before committing to the physical flow.
struct Candidate {
  bool valid = false;
  int level = -1;  // 0 = no folding
  FoldingConfig cfg;
  DesignSchedule schedule;
  ClusteredDesign clustered;
  std::vector<FdsResult> plane_results;
  int les = 0;
  double est_delay_ns = 0.0;
};

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// One rung of the routing escalation ladder: router budgets plus the
// (possibly widened) interconnect to route against.
struct RouteRung {
  std::string name;
  RouterOptions router;
  ArchParams arch;
};

class FlowEngine {
 public:
  FlowEngine(const Design& design, const FlowOptions& options)
      : design_(design), options_(options),
        pool_(options.threads > 0 ? options.threads
                                  : ThreadPool::hardware_threads()) {
    options_.arch.validate();
    params_ = extract_circuit_params(design.net);
    ladder_ = build_route_ladder();
  }

  FlowResult run() {
    auto t0 = std::chrono::steady_clock::now();
    FlowResult result;
    result.params = params_;

    start_level_search();
    log_ << "objective " << objective_name(options_.objective)
         << ", candidate levels:";
    for (int lv : candidates_) log_ << " " << lv;

    while (std::optional<int> next = next_level()) {
      const int level = *next;
      ++result.levels_tried;
      NM_TRACE_COUNT("flow.levels_tried", 1);
      Candidate& cand = evaluate_cached(level);
      if (!cand.valid) {
        log_ << " | L" << level << ": infeasible schedule";
        continue;
      }
      if (options_.area_constraint_le > 0 &&
          cand.les > options_.area_constraint_le) {
        record({"flow", level, 0, FlowErrorKind::kInfeasibleConstraint,
                "skip",
                "area " + std::to_string(cand.les) + " > " +
                    std::to_string(options_.area_constraint_le)});
        continue;
      }
      if (options_.delay_constraint_ns > 0.0 &&
          cand.est_delay_ns > options_.delay_constraint_ns * 1.25) {
        // Clearly hopeless even before placement (25% estimate margin).
        record({"flow", level, 0, FlowErrorKind::kInfeasibleConstraint,
                "skip",
                "est delay " + fmt(cand.est_delay_ns) + " >> " +
                    fmt(options_.delay_constraint_ns)});
        continue;
      }

      if (!finish(cand, &result)) continue;  // physical fallback
      if (options_.delay_constraint_ns > 0.0 &&
          result.delay_ns > options_.delay_constraint_ns) {
        record({"flow", level, 0, FlowErrorKind::kInfeasibleConstraint,
                "skip",
                "delay " + fmt(result.delay_ns) + " > " +
                    fmt(options_.delay_constraint_ns)});
        continue;
      }
      result.feasible = true;
      break;
    }

    if (!result.feasible) try_no_folding_degradation(&result);

    if (!result.feasible) {
      log_ << " | no folding level satisfies the constraints";
      std::vector<FlowErrorKind> kinds;
      for (const FlowEvent& e : diag_.events) kinds.push_back(e.kind);
      result.error_kind = dominant_error_kind(kinds);
    }
    result.diagnostics = diag_;
    result.message = log_.str();
    result.cpu_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return result;
  }

 private:
  // --- diagnostics ---------------------------------------------------------

  // Appends a typed event to the trail and renders it into the free-text
  // message, keeping the historical " | L<level>: <detail>" prose.
  void record(FlowEvent event) {
    if (event.level >= 0)
      log_ << " | L" << event.level << ": " << event.detail;
    else
      log_ << " | " << event.detail;
    NM_TRACE_COUNT("flow.events", 1);
    if (event.action == "retry" || event.action == "escalate" ||
        event.action == "fallback" || event.action == "degrade" ||
        event.action == "recovered")
      NM_TRACE_COUNT("flow.recovery.events", 1);
    diag_.add(std::move(event));
  }

  // Runs one stage call, converting any CheckError / InputError /
  // std::bad_alloc into a typed trail entry. Returns false when the stage
  // failed (the caller then falls back instead of propagating).
  template <typename Fn>
  bool guard(const char* stage, int level, int attempt, Fn&& fn) {
    try {
      fn();
      return true;
    } catch (const InputError& e) {
      record({stage, level, attempt, FlowErrorKind::kInput, "error",
              std::string(e.what())});
    } catch (const CheckError& e) {
      record({stage, level, attempt, FlowErrorKind::kInternal, "error",
              std::string(e.what())});
    } catch (const std::bad_alloc&) {
      record({stage, level, attempt, FlowErrorKind::kResourceExhausted,
              "error", "out of memory"});
    }
    return false;
  }

  // --- level order -----------------------------------------------------------

  // For AT-product optimization the physical flow is attempted in order of
  // *measured* post-clustering #LEs x estimated delay, ties broken by
  // candidate order; for the other objectives the candidate order already
  // encodes preference.
  void start_level_search() {
    candidates_ = candidate_folding_levels(params_, options_);
    rank_by_at_ = options_.objective == Objective::kAreaDelayProduct &&
                  options_.forced_folding_level < 0;
    if (!rank_by_at_) return;
    for (std::size_t i = 0; i < candidates_.size(); ++i)
      by_bound_.push_back({at_lower_bound(candidates_[i]), i});
    std::stable_sort(by_bound_.begin(), by_bound_.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  }

  // Lower bound on a level's AT product (#LEs x estimated delay) that
  // needs no scheduling. The delay factor is the same closed form the AT
  // product uses. For #LEs: temporal_cluster's finalize_counts charges each
  // SMB at least the LUT slots it uses over all cycles, which is at least
  // the LUTs it hosts in any one cycle, so les_used >= the LUTs executing
  // in the busiest cycle. Plane p's num_lut[p] LUTs execute in its S =
  // stages_per_plane cycles (1 without folding), so some cycle holds at
  // least ceil(num_lut[p] / S) of them; the max over planes is
  // ceil(lut_max / S).
  double at_lower_bound(int level) const {
    const FoldingConfig cfg = make_folding_config(params_, level);
    const int stages = cfg.stages_per_plane;
    const int lb_les = (params_.lut_max + stages - 1) / stages;
    return lb_les * estimated_circuit_delay_ns(params_, cfg, options_.arch);
  }

  // The next level to attempt, or nullopt when every candidate was given.
  // Under the AT objective this is a lazy best-first search: levels are
  // scheduled and clustered in lower-bound order only while the next
  // bound could still tie or beat the best measured AT not yet yielded,
  // and the yield is the minimum by (AT, candidate index) - exactly the
  // order a stable sort of every level's measured AT would give. A level
  // the physical flow rejects simply resumes the same sequence.
  std::optional<int> next_level() {
    if (!rank_by_at_) {
      if (next_ == candidates_.size()) return std::nullopt;
      return candidates_[next_++];
    }
    while (next_ < by_bound_.size() &&
           (measured_.empty() ||
            by_bound_[next_].first <= measured_.begin()->first)) {
      const auto [bound, index] = by_bound_[next_++];
      const Candidate& cand = evaluate_cached(candidates_[index]);
      if (!cand.valid) continue;
      const double at = cand.les * cand.est_delay_ns;
      NM_CHECK_MSG(at >= bound, "AT lower bound " << bound << " exceeds AT "
                                                  << at << " at L"
                                                  << cand.level);
      measured_.insert({at, index});
    }
    if (measured_.empty()) return std::nullopt;
    const int level = candidates_[measured_.begin()->second];
    measured_.erase(measured_.begin());
    if (!at_best_logged_) log_ << " | AT ranking best L" << level;
    at_best_logged_ = true;
    return level;
  }

  // --- evaluation -----------------------------------------------------------

  Candidate& evaluate_cached(int level) {
    auto it = cache_.find(level);
    if (it == cache_.end())
      it = cache_.emplace(level, evaluate(level)).first;
    return it->second;
  }

  // Scheduling + clustering for one level. Exceptions never escape: a
  // stage failure records a typed trail entry and yields an invalid
  // candidate, which the search treats like an infeasible schedule.
  Candidate evaluate(int level) {
    Candidate cand;
    cand.level = level;
    cand.cfg = make_folding_config(params_, level);

    // Respect the NRAM depth.
    if (!cand.cfg.no_folding() && !options_.arch.reconf_unbounded() &&
        options_.planes_share &&
        cand.cfg.total_configs(params_.num_plane) >
            options_.arch.num_reconf) {
      return cand;
    }

    DesignSchedule sched;
    sched.folding = cand.cfg;
    sched.planes_share = cand.cfg.no_folding() ? false : options_.planes_share;
    FdsOptions fds_opts;
    fds_opts.scheduler = options_.scheduler;
    fds_opts.refine = options_.refine_schedule;
    bool feasible = true;
    bool ok;
    {
      NM_TRACE_SPAN("schedule");
      ok = guard("schedule", level, 0, [&] {
        for (int p = 0; p < params_.num_plane; ++p) {
          PlaneScheduleGraph graph =
              build_schedule_graph(design_, p, cand.cfg);
          if (!graph.feasible) {
            feasible = false;
            return;
          }
          FdsResult fr =
              schedule_plane(graph, options_.arch, fds_opts);
          if (!fr.feasible) {
            feasible = false;
            return;
          }
          sched.graphs.push_back(std::move(graph));
          sched.plane_results.push_back(std::move(fr));
        }
      });
    }
    if (!ok || !feasible) return cand;

    {
      NM_TRACE_SPAN("cluster");
      ok = guard("cluster", level, 0, [&] {
        cand.clustered = temporal_cluster(design_, sched, options_.arch);
        verify_clustering(design_, sched, options_.arch, cand.clustered);
      });
    }
    if (!ok) return cand;
    if (Trace::enabled() && cand.clustered.num_smbs > 0) {
      NM_TRACE_VALUE("cluster.le_utilization",
                     static_cast<double>(cand.clustered.les_used) /
                         (static_cast<double>(cand.clustered.num_smbs) *
                          options_.arch.les_per_smb()));
    }

    cand.les = cand.clustered.les_used;
    cand.est_delay_ns =
        estimated_circuit_delay_ns(params_, cand.cfg, options_.arch);
    cand.plane_results = sched.plane_results;
    cand.schedule = std::move(sched);
    cand.valid = true;
    return cand;
  }

  // --- recovery ladder ------------------------------------------------------

  // Routing rungs, cheapest first: the caller's budgets on the caller's
  // fabric (rung 0, byte-identical to the historical single attempt), then
  // bounded channel-width bumps on a widened copy of the architecture
  // (VPR-style "increase W before declaring unroutable"), routed with
  // raised max_iterations / present-congestion schedules. Every placement
  // attempt climbs this one ladder, on any fabric.
  std::vector<RouteRung> build_route_ladder() const {
    std::vector<RouteRung> rungs;
    rungs.push_back({"default budgets", options_.router, options_.arch});

    RouterOptions raised = options_.router;
    raised.max_iterations =
        std::max(raised.max_iterations * 3, raised.max_iterations + 40);
    raised.pres_fac_mult = 1.0 + (raised.pres_fac_mult - 1.0) * 1.5;
    raised.hist_fac *= 1.5;

    ArchParams widened = options_.arch;
    double factor = 1.0;
    for (int c = 1; c <= kChannelBumpRungs; ++c) {
      factor *= kChannelBumpFactor;
      auto bump = [factor](int base) {
        return std::max(base + 1, static_cast<int>(std::ceil(base * factor)));
      };
      widened.len1_tracks = bump(options_.arch.len1_tracks);
      widened.len4_tracks = bump(options_.arch.len4_tracks);
      widened.global_tracks = bump(options_.arch.global_tracks);
      rungs.push_back({"widened channels x" + fmt(factor) + " (len1 " +
                           std::to_string(widened.len1_tracks) + ", len4 " +
                           std::to_string(widened.len4_tracks) +
                           ", global " +
                           std::to_string(widened.global_tracks) + ")",
                       raised, widened});
    }
    return rungs;
  }

  // Climbs the routing ladder for one placement. On success *arch_used /
  // *router_used are the arch and router budgets of the winning rung
  // (widened rungs route — and are then timed / emitted — against their
  // own interconnect). Returns false when the climb ended without a
  // route; *fatal is set when a rung died on an exception (already
  // recorded), which aborts the level instead of climbing further.
  //
  // Every rung builds the RR graph at its own widths and routes every
  // folding cycle from scratch. A failed rung is an "escalate" event
  // while a later rung of this climb will still run, and a "fallback"
  // once the climb is spent.
  bool climb_route_ladder(const Candidate& cand,
                          const PlacementResult& placed, int attempt,
                          RoutingResult* routed, ArchParams* arch_used,
                          RouterOptions* router_used, bool* fatal) {
    *fatal = false;
    NM_TRACE_SPAN("route");
    for (std::size_t r = 0; r < ladder_.size(); ++r) {
      const RouteRung& rung = ladder_[r];
      int rr_nodes = 0;
      bool ok = guard("route", cand.level, attempt, [&] {
        // Graph builds go through the shared prototype cache when the
        // caller installed one (flow-as-a-service); the copy handed out
        // equals a fresh build.
        const RrGraph rr = [&] {
          NM_TRACE_SPAN("rr_build");
          return options_.rr_provider != nullptr
                     ? options_.rr_provider->make(placed.placement.grid,
                                                  rung.arch)
                     : RrGraph(placed.placement.grid, rung.arch);
        }();
        rr_nodes = rr.size();
        *routed = route_design(cand.clustered, placed.placement, rr,
                               rung.router, &pool_);
      });
      if (!ok) {
        *fatal = true;
        return false;
      }
      if (routed->success) {
        // Occupancy of the per-cycle RR graph, averaged over the folding
        // cycles the wire usage was summed across.
        if (Trace::enabled() && rr_nodes > 0 &&
            cand.clustered.num_cycles > 0) {
          NM_TRACE_VALUE("route.channel_occupancy",
                         static_cast<double>(routed->usage.total()) /
                             (static_cast<double>(rr_nodes) *
                              cand.clustered.num_cycles));
        }
        if (r > 0 || attempt > 0)
          record({"route", cand.level, attempt, FlowErrorKind::kNone,
                  "recovered",
                  "routed at rung " + std::to_string(r) + " (" + rung.name +
                      (attempt > 0
                           ? ", reseeded placement " + std::to_string(attempt)
                           : "") +
                      ")"});
        *arch_used = rung.arch;
        *router_used = rung.router;
        return true;
      }
      // A channel rung whose overused nodes, summed over the folding
      // cycles, exceed 5% of one cycle's RR graph will not be saved by
      // the next, wider one: it ends the climb.
      const long hopeless_limit =
          std::max<long>(50, static_cast<long>(rr_nodes) / 20);
      const bool hopeless = r > 0 && routed->overused_nodes > hopeless_limit;
      const char* action =
          hopeless || r + 1 == ladder_.size() ? "fallback" : "escalate";
      record({"route", cand.level, attempt,
              FlowErrorKind::kRoutingCongestion, action,
              "routing failed (" + std::to_string(routed->overused_nodes) +
                  " overused, rung " + std::to_string(r) + ": " + rung.name +
                  ")"});
      if (hopeless) {
        record({"route", cand.level, attempt,
                FlowErrorKind::kRoutingCongestion, action,
                "congestion too heavy to escalate (" +
                    std::to_string(routed->overused_nodes) +
                    " overused nodes summed over " +
                    std::to_string(cand.clustered.num_cycles) +
                    " folding cycles > limit " +
                    std::to_string(hopeless_limit) +
                    " = max(50, 5% of one cycle's " +
                    std::to_string(rr_nodes) + " RR nodes))"});
        break;
      }
    }
    return false;
  }

  // Physical flow; returns false to make the search fall back to the next
  // folding level (paper steps 13/14) — but only after every placement
  // attempt (the caller's seed, then kPlacementReseeds reseeds) has
  // climbed the routing ladder.
  bool finish(Candidate& cand, FlowResult* result) {
    result->folding = cand.cfg;
    result->num_les = cand.les;
    result->num_smbs = cand.clustered.num_smbs;
    result->peak_ffs = cand.clustered.ffs_peak;
    result->area_um2 =
        cand.clustered.num_smbs * options_.arch.smb_area_um2();
    result->estimated_delay_ns = cand.est_delay_ns;
    result->plane_schedules = cand.plane_results;
    if (Trace::enabled()) {
      for (const FdsResult& fr : cand.plane_results)
        for (std::size_t s = 1; s < fr.le_count.size(); ++s)
          NM_TRACE_VALUE("fds.le_per_stage", fr.le_count[s]);
    }

    if (!options_.run_physical) {
      result->delay_ns = cand.est_delay_ns;
      result->folding_cycle_ns =
          cand.cfg.no_folding()
              ? 0.0
              : estimated_folding_cycle_ps(options_.arch, cand.cfg.level) /
                    1000.0;
      result->schedule = std::move(cand.schedule);
      result->clustered = std::move(cand.clustered);
      return true;
    }
    attempted_physical_.insert(cand.level);

    const bool defect_aware = options_.arch.defects.active();
    if (defect_aware) {
      // Fit check before burning any annealing time: every SMB must be
      // able to claim a distinct legal site on the surviving fabric
      // (bipartite matching), or no placement seed can ever succeed.
      PlaceLegality legal(cand.clustered, options_.arch,
                          size_grid_for(cand.clustered.num_smbs));
      if (!legal.feasible()) {
        record({"place", cand.level, 0, FlowErrorKind::kDefectInfeasible,
                "fallback",
                "circuit cannot fit the surviving fabric (" +
                    std::to_string(legal.dead_smb_sites()) +
                    " dead SMB sites, " +
                    std::to_string(legal.dead_le_slots()) +
                    " dead LE slots)"});
        return false;
      }
    }

    // Placement attempt 0 runs with the caller's seed and options — the
    // historical behavior, byte-identical when it succeeds. Attempts
    // 1..kPlacementReseeds re-place with derive_seed streams (thread-count
    // independent) only after the previous placement's ladder was spent.
    PlacementResult placed;
    RoutingResult routed;
    ArchParams arch_used = options_.arch;
    RouterOptions router_used = options_.router;
    bool route_ok = false;
    for (int attempt = 0; attempt <= kPlacementReseeds && !route_ok;
         ++attempt) {
      PlacementOptions popts = options_.placement;
      if (attempt == 0) {
        popts.seed = options_.seed;
      } else {
        popts.seed = derive_seed(options_.seed,
                                 kReseedStreamBase +
                                     static_cast<std::uint64_t>(attempt));
        record({"place", cand.level, attempt, FlowErrorKind::kNone, "retry",
                "re-seeded placement restart " + std::to_string(attempt) +
                    " of " + std::to_string(kPlacementReseeds)});
      }
      bool place_ok;
      {
        NM_TRACE_SPAN("place");
        place_ok = guard("place", cand.level, attempt, [&] {
          placed = place_design(cand.clustered, options_.arch, popts,
                                &pool_);
        });
      }
      if (!place_ok) return false;
      if (!placed.screen_passed) {
        // Advisory only — the router below is the authoritative check.
        record({"place", cand.level, attempt,
                FlowErrorKind::kPlacementScreen, "warn",
                "routability screen high (util " +
                    fmt(placed.routability.peak_utilization) +
                    "), routing anyway"});
      }
      bool fatal = false;
      route_ok = climb_route_ladder(cand, placed, attempt, &routed,
                                    &arch_used, &router_used, &fatal);
      if (fatal) return false;
    }
    if (!route_ok) {
      record({"flow", cand.level, 0, FlowErrorKind::kRoutingCongestion,
              "fallback",
              "recovery ladder exhausted, abandoning folding level"});
      return false;
    }

    TimingReport timing;
    bool stage_ok;
    {
      NM_TRACE_SPAN("sta");
      stage_ok = guard("sta", cand.level, 0, [&] {
        timing = analyze_timing(design_, cand.schedule, cand.clustered,
                                placed.placement, &routed, arch_used);
      });
    }
    if (!stage_ok) return false;

    result->delay_ns = timing.circuit_delay_ns;
    result->folding_cycle_ns = timing.folding_cycle_ns;
    {
      NM_TRACE_SPAN("bitmap");
      stage_ok = guard("bitmap", cand.level, 0, [&] {
        result->bitmap = generate_bitmap(design_, cand.schedule,
                                         cand.clustered, &routed,
                                         arch_used);
      });
    }
    if (!stage_ok) return false;
    NM_TRACE_COUNT("bitmap.configs", result->bitmap.num_cycles);
    NM_TRACE_COUNT("bitmap.bits",
                   static_cast<long>(result->bitmap.total_bits));
    if (!result->bitmap.fits_nram(options_.arch)) {
      record({"bitmap", cand.level, 0, FlowErrorKind::kInfeasibleConstraint,
              "fallback", "bitmap exceeds NRAM depth"});
      return false;
    }
    if (defect_aware) {
      // End-to-end defect audit of the emitted configuration: rebuild the
      // RR graph the winning rung routed on (deterministic, same node
      // ids) and prove the bitstream never touches a defective resource.
      // A violation is an internal error (the masks upstream failed), not
      // a recoverable congestion event.
      stage_ok = guard("bitmap", cand.level, 0, [&] {
        RrGraph audit(placed.placement.grid, arch_used);
        std::string why;
        NM_CHECK_MSG(verify_bitmap_defects(result->bitmap, placed.placement,
                                           audit, &why),
                     "bitstream touches a defective resource: " << why);
      });
      if (!stage_ok) return false;
    }
    result->timing = std::move(timing);
    result->routing = std::move(routed);
    result->routed_arch = arch_used;
    result->routed_router = router_used;
    result->placement = std::move(placed);
    result->schedule = std::move(cand.schedule);
    result->clustered = std::move(cand.clustered);
    return true;
  }

  // Final graceful-degradation step: when the search exhausted every
  // candidate, attempt a no-folding mapping (skipping the estimate-based
  // pre-screen but still honoring hard constraints) before returning
  // infeasible-with-trail.
  void try_no_folding_degradation(FlowResult* result) {
    if (!options_.run_physical ||
        options_.forced_folding_level >= 0 ||
        attempted_physical_.count(0) > 0)
      return;
    record({"flow", 0, 0, FlowErrorKind::kNone, "degrade",
            "attempting no-folding as a last resort"});
    Candidate& cand = evaluate_cached(0);
    if (!cand.valid) {
      record({"flow", 0, 0, FlowErrorKind::kInfeasibleConstraint,
              "infeasible", "no-folding schedule infeasible"});
      return;
    }
    if (options_.area_constraint_le > 0 &&
        cand.les > options_.area_constraint_le) {
      record({"flow", 0, 0, FlowErrorKind::kInfeasibleConstraint,
              "infeasible",
              "no-folding violates area constraint (" +
                  std::to_string(cand.les) + " > " +
                  std::to_string(options_.area_constraint_le) + " LEs)"});
      return;
    }
    ++result->levels_tried;
    NM_TRACE_COUNT("flow.levels_tried", 1);
    if (!finish(cand, result)) return;
    if (options_.delay_constraint_ns > 0.0 &&
        result->delay_ns > options_.delay_constraint_ns) {
      record({"flow", 0, 0, FlowErrorKind::kInfeasibleConstraint,
              "infeasible",
              "no-folding maps but delay " + fmt(result->delay_ns) + " > " +
                  fmt(options_.delay_constraint_ns)});
      return;
    }
    record({"flow", 0, 0, FlowErrorKind::kNone, "recovered",
            "degraded to no-folding mapping"});
    result->feasible = true;
  }

  const Design& design_;
  FlowOptions options_;
  ThreadPool pool_;  // placement restarts and concurrent routing cycles
  CircuitParams params_;
  std::vector<RouteRung> ladder_;  // every placement attempt climbs it
  std::map<int, Candidate> cache_;
  // Level order (start_level_search / next_level).
  std::vector<int> candidates_;
  bool rank_by_at_ = false;
  std::size_t next_ = 0;  // into candidates_, or by_bound_ under AT
  std::vector<std::pair<double, std::size_t>> by_bound_;  // (bound, index)
  std::set<std::pair<double, std::size_t>> measured_;     // (AT, index)
  bool at_best_logged_ = false;
  std::set<int> attempted_physical_;
  std::ostringstream log_;
  FlowDiagnostics diag_;
};

}  // namespace

const char* objective_name(Objective objective) {
  switch (objective) {
    case Objective::kAreaDelayProduct: return "area-delay-product";
    case Objective::kMinDelay: return "min-delay";
    case Objective::kMinArea: return "min-area";
    case Objective::kMeetBoth: return "meet-constraints";
  }
  return "?";
}

const char* flow_error_kind_name(FlowErrorKind kind) {
  switch (kind) {
    case FlowErrorKind::kNone: return "none";
    case FlowErrorKind::kInput: return "input";
    case FlowErrorKind::kInfeasibleConstraint: return "infeasible-constraint";
    case FlowErrorKind::kPlacementScreen: return "placement-screen";
    case FlowErrorKind::kRoutingCongestion: return "routing-congestion";
    case FlowErrorKind::kDefectInfeasible: return "defect-infeasible";
    case FlowErrorKind::kResourceExhausted: return "resource-exhausted";
    case FlowErrorKind::kInternal: return "internal";
  }
  return "?";
}

FlowErrorKind dominant_error_kind(const std::vector<FlowErrorKind>& kinds) {
  static const FlowErrorKind precedence[] = {
      FlowErrorKind::kInternal,          FlowErrorKind::kResourceExhausted,
      FlowErrorKind::kInput,             FlowErrorKind::kDefectInfeasible,
      FlowErrorKind::kRoutingCongestion, FlowErrorKind::kPlacementScreen,
      FlowErrorKind::kInfeasibleConstraint,
  };
  for (FlowErrorKind kind : precedence)
    if (std::find(kinds.begin(), kinds.end(), kind) != kinds.end())
      return kind;
  return FlowErrorKind::kInfeasibleConstraint;
}

std::string FlowDiagnostics::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlowEvent& e = events[i];
    os << "  [" << i << "] " << e.stage;
    if (e.level >= 0) os << " L" << e.level;
    if (e.attempt > 0) os << " attempt " << e.attempt;
    os << " " << e.action;
    if (e.kind != FlowErrorKind::kNone)
      os << " [" << flow_error_kind_name(e.kind) << "]";
    os << ": " << e.detail << "\n";
  }
  return os.str();
}

void validate_flow_options(const FlowOptions& o) {
  auto reject = [](const char* field, const char* why) {
    throw InputError(std::string("invalid flow options: ") + field + " " +
                     why);
  };
  if (o.threads < 0) reject("threads", "must be >= 0");
  if (o.area_constraint_le < 0) reject("area_constraint_le", "must be >= 0");
  if (!(o.delay_constraint_ns >= 0.0))
    reject("delay_constraint_ns", "must be >= 0");
  if (o.forced_folding_level < -1)
    reject("forced_folding_level", "must be >= -1 (-1 = search)");
  if (o.placement.restarts < 1) reject("placement.restarts", "must be >= 1");
  if (!(o.placement.fast_effort > 0.0))
    reject("placement.fast_effort", "must be > 0");
  if (!(o.placement.detailed_effort > 0.0))
    reject("placement.detailed_effort", "must be > 0");
  if (o.router.max_iterations < 1)
    reject("router.max_iterations", "must be >= 1");
  if (!(o.router.initial_pres_fac > 0.0))
    reject("router.initial_pres_fac", "must be > 0");
  if (!(o.router.pres_fac_mult > 0.0))
    reject("router.pres_fac_mult", "must be > 0");
  if (!(o.router.hist_fac >= 0.0)) reject("router.hist_fac", "must be >= 0");
  try {
    o.arch.validate();
  } catch (const CheckError& e) {
    throw InputError(std::string("invalid architecture parameters: ") +
                     e.what());
  }
  if (!o.fault_plan.empty()) parse_fault_plan(o.fault_plan);
}

std::vector<int> candidate_folding_levels(const CircuitParams& params,
                                          const FlowOptions& options) {
  if (options.forced_folding_level >= 0)
    return {options.forced_folding_level};

  const int lo = min_folding_level(params, options.arch);
  const int hi = std::max(lo, params.depth_max);
  auto no_folding_fits_area = [&] {
    if (options.area_constraint_le <= 0) return true;
    int les = std::max(params.total_luts,
                       (params.total_flipflops + options.arch.ff_per_le - 1) /
                           options.arch.ff_per_le);
    return les <= options.area_constraint_le;
  };
  std::vector<int> levels;
  switch (options.objective) {
    case Objective::kMinDelay: {
      if (options.area_constraint_le <= 0) return {0};
      if (no_folding_fits_area()) levels.push_back(0);
      int start;
      if (options.planes_share) {
        int stages = min_folding_stages(params, options.area_constraint_le);
        start = folding_level_for_stages(params, stages);
      } else {
        start = folding_level_no_sharing(params, options.area_constraint_le);
      }
      start = std::clamp(start, lo, hi);
      for (int lv = start; lv >= lo; --lv) levels.push_back(lv);
      break;
    }
    case Objective::kMinArea: {
      for (int lv = lo; lv <= hi; ++lv) levels.push_back(lv);
      levels.push_back(0);
      break;
    }
    case Objective::kMeetBoth: {
      if (no_folding_fits_area()) levels.push_back(0);
      for (int lv = hi; lv >= lo; --lv) levels.push_back(lv);
      break;
    }
    case Objective::kAreaDelayProduct: {
      for (int lv = lo; lv <= hi; ++lv) levels.push_back(lv);
      levels.push_back(0);
      break;
    }
  }
  return levels;
}

FlowResult run_nanomap(const Design& design, const FlowOptions& options) {
  // Option problems are the caller's contract violation and do throw
  // (InputError); everything past this point returns a clean result.
  validate_flow_options(options);
  FaultScope faults(options.fault_plan);
  // Record into the caller's collector, or a private one when asked to
  // trace and none is bound.
  TraceCollector own;
  TraceCollector* collector = active_trace_collector();
  if (collector == nullptr && options.collect_trace) collector = &own;
  TraceScope bind(collector);

  // Snapshot the collector (after the "flow" span closed) and attach the
  // machine-readable report. Used on the success and the error path, so
  // --report=json always has a document to write.
  auto finalize = [&](FlowResult r) {
    r.report = build_run_report(
        options, r,
        options.collect_trace ? collector->snapshot() : TraceSnapshot{});
    return r;
  };
  auto error_result = [&](FlowErrorKind kind, const std::string& what) {
    FlowResult r;
    r.feasible = false;
    r.error_kind = kind;
    r.diagnostics.add({"flow", -1, 0, kind, "error", what});
    r.message = std::string(flow_error_kind_name(kind)) + " error: " + what;
    return finalize(std::move(r));
  };
  // The last-resort exception boundary. The per-stage guards inside
  // FlowEngine handle stage failures with retry/fallback; this catch
  // covers engine-level code (parameter extraction, candidate
  // generation) so no exception ever escapes to the caller.
  try {
    FlowResult r;
    {
      NM_TRACE_SPAN("flow");
      r = FlowEngine(design, options).run();
    }
    return finalize(std::move(r));
  } catch (const InputError& e) {
    return error_result(FlowErrorKind::kInput, e.what());
  } catch (const CheckError& e) {
    return error_result(FlowErrorKind::kInternal, e.what());
  } catch (const std::bad_alloc&) {
    return error_result(FlowErrorKind::kResourceExhausted, "out of memory");
  }
}

int exit_code_for(const FlowResult& r) {
  if (r.feasible) return 0;
  switch (r.error_kind) {
    case FlowErrorKind::kInput: return 2;
    case FlowErrorKind::kInternal:
    case FlowErrorKind::kResourceExhausted: return 3;
    default: return 1;  // clean infeasible
  }
}

std::string summarize(const FlowResult& r) {
  std::ostringstream os;
  if (!r.feasible) {
    os << "INFEASIBLE (" << r.message << ")";
    return os.str();
  }
  os << "level ";
  if (r.folding.no_folding())
    os << "no-folding";
  else
    os << r.folding.level << " (" << r.folding.stages_per_plane
       << " stages/plane)";
  os << ", " << r.num_les << " LEs, " << r.num_smbs << " SMBs, delay "
     << r.delay_ns << " ns, cycle " << r.folding_cycle_ns << " ns";
  return os.str();
}

}  // namespace nanomap
