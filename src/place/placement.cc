#include "place/placement.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "place/annealer.h"
#include "util/fault.h"
#include "util/log.h"
#include "util/trace.h"

namespace nanomap {
namespace {

// Kuhn augmenting-path search: can `smb` claim a site (in `order`
// preference) either directly or by displacing a current holder onto an
// alternative site?
bool augment_smb(const PlaceLegality& legal, const std::vector<int>& order,
                 int smb, std::vector<int>* smb_at_site,
                 std::vector<int>* site_of_smb, std::vector<char>* visited) {
  for (int site : order) {
    if ((*visited)[static_cast<std::size_t>(site)] || !legal.ok(site, smb))
      continue;
    (*visited)[static_cast<std::size_t>(site)] = 1;
    int holder = (*smb_at_site)[static_cast<std::size_t>(site)];
    if (holder < 0 || augment_smb(legal, order, holder, smb_at_site,
                                  site_of_smb, visited)) {
      (*smb_at_site)[static_cast<std::size_t>(site)] = smb;
      (*site_of_smb)[static_cast<std::size_t>(smb)] = site;
      return true;
    }
  }
  return false;
}

Placement initial_placement(const ClusteredDesign& cd, Rng* rng,
                            const PlaceLegality* legal) {
  Placement p;
  p.grid = size_grid_for(cd.num_smbs);
  std::vector<int> sites(static_cast<std::size_t>(p.grid.sites()));
  for (int i = 0; i < p.grid.sites(); ++i)
    sites[static_cast<std::size_t>(i)] = i;
  rng->shuffle(sites);
  p.site_of_smb.assign(static_cast<std::size_t>(cd.num_smbs), -1);
  if (legal == nullptr || !legal->active()) {
    for (int m = 0; m < cd.num_smbs; ++m)
      p.site_of_smb[static_cast<std::size_t>(m)] =
          sites[static_cast<std::size_t>(m)];
    return p;
  }
  // Defective fabric: greedily give each SMB its first legal free site in
  // the shuffled preference order, then repair the stragglers with
  // augmenting paths. Deterministic per RNG stream; the flow's fit check
  // guarantees a full matching exists before placement starts.
  std::vector<int> smb_at_site(static_cast<std::size_t>(p.grid.sites()), -1);
  for (int m = 0; m < cd.num_smbs; ++m) {
    for (int site : sites) {
      if (smb_at_site[static_cast<std::size_t>(site)] >= 0 ||
          !legal->ok(site, m))
        continue;
      smb_at_site[static_cast<std::size_t>(site)] = m;
      p.site_of_smb[static_cast<std::size_t>(m)] = site;
      break;
    }
  }
  std::vector<char> visited(static_cast<std::size_t>(p.grid.sites()));
  for (int m = 0; m < cd.num_smbs; ++m) {
    if (p.site_of_smb[static_cast<std::size_t>(m)] >= 0) continue;
    std::fill(visited.begin(), visited.end(), 0);
    NM_CHECK_MSG(augment_smb(*legal, sites, m, &smb_at_site, &p.site_of_smb,
                             &visited),
                 "initial placement: SMB " << m
                     << " cannot be placed on the surviving fabric");
  }
  return p;
}

// Half-perimeter of a net's bounding box, from its pins.
std::int64_t net_hpwl(const ClusteredDesign& cd, const Placement& placement,
                      std::size_t net) {
  const PlacedNet& pn = cd.nets[net];
  int xmin = placement.x_of(pn.driver_smb);
  int xmax = xmin;
  int ymin = placement.y_of(pn.driver_smb);
  int ymax = ymin;
  for (int s : pn.sink_smbs) {
    xmin = std::min(xmin, placement.x_of(s));
    xmax = std::max(xmax, placement.x_of(s));
    ymin = std::min(ymin, placement.y_of(s));
    ymax = std::max(ymax, placement.y_of(s));
  }
  return (xmax - xmin) + (ymax - ymin);
}

// One full two-step placement with a single RNG stream (the historical
// place_design body). Leaves cost and wirelength to place_design, which
// scores the restarts in fixed point.
PlacementResult place_single(const ClusteredDesign& cd,
                             const PlacementOptions& options,
                             const PlaceLegality* legal) {
  Rng rng(options.seed);
  PlacementResult result;
  result.placement = initial_placement(cd, &rng, legal);
  if (cd.num_smbs == 0) return result;

  // The paper's two-step temporal placement (PAPER.md §1, step 3).
  // Step 1: fast low-precision anneal, hot-started from the random
  // placement. Step 2: high-precision anneal, cool-started from the fast
  // result so it refines it.
  Annealer annealer(cd, result.placement, kTimingWeight, &rng, legal);
  annealer.run(options.fast_effort, AnnealStart::kHot);
  annealer.run(options.detailed_effort, AnnealStart::kCool);
  result.placement = annealer.placement();
  result.moves_attempted = annealer.moves_attempted();
  result.moves_accepted = annealer.moves_accepted();
  return result;
}

}  // namespace

PlaceLegality::PlaceLegality(const ClusteredDesign& cd,
                             const ArchParams& arch, const GridSize& grid)
    : num_smbs_(cd.num_smbs), sites_(grid.sites()),
      active_(arch.defects.active()) {
  if (!active_) return;
  const DefectSpec& spec = arch.defects;
  const int les = arch.les_per_smb();
  // Which LE slots each SMB actually configures, across all cycles.
  std::vector<char> used(
      static_cast<std::size_t>(num_smbs_) * static_cast<std::size_t>(les),
      0);
  for (const LutPlacement& lp : cd.place) {
    if (lp.smb >= 0 && lp.slot >= 0 && lp.slot < les)
      used[static_cast<std::size_t>(lp.smb) * static_cast<std::size_t>(les) +
           static_cast<std::size_t>(lp.slot)] = 1;
  }
  ok_.assign(
      static_cast<std::size_t>(sites_) * static_cast<std::size_t>(num_smbs_),
      0);
  std::vector<char> slot_dead(static_cast<std::size_t>(les));
  for (int site = 0; site < sites_; ++site) {
    const int x = site % grid.width;
    const int y = site / grid.width;
    const bool smb_dead = defect_smb_dead(spec, x, y);
    if (smb_dead) ++dead_smb_sites_;
    bool any_slot_dead = false;
    for (int s = 0; s < les; ++s) {
      slot_dead[static_cast<std::size_t>(s)] =
          defect_le_dead(spec, x, y, s) ? 1 : 0;
      if (slot_dead[static_cast<std::size_t>(s)]) {
        ++dead_le_slots_;
        any_slot_dead = true;
      }
    }
    if (smb_dead) continue;  // every SMB rejected here
    for (int m = 0; m < num_smbs_; ++m) {
      bool fits = true;
      if (any_slot_dead) {
        for (int s = 0; s < les && fits; ++s) {
          if (slot_dead[static_cast<std::size_t>(s)] &&
              used[static_cast<std::size_t>(m) *
                       static_cast<std::size_t>(les) +
                   static_cast<std::size_t>(s)])
            fits = false;
        }
      }
      ok_[static_cast<std::size_t>(site) *
              static_cast<std::size_t>(num_smbs_) +
          static_cast<std::size_t>(m)] = fits ? 1 : 0;
    }
  }
}

bool PlaceLegality::feasible() const {
  if (!active_) return num_smbs_ <= sites_;
  std::vector<int> order(static_cast<std::size_t>(sites_));
  std::iota(order.begin(), order.end(), 0);
  std::vector<int> smb_at_site(static_cast<std::size_t>(sites_), -1);
  std::vector<int> site_of_smb(static_cast<std::size_t>(num_smbs_), -1);
  std::vector<char> visited(static_cast<std::size_t>(sites_));
  for (int m = 0; m < num_smbs_; ++m) {
    std::fill(visited.begin(), visited.end(), 0);
    if (!augment_smb(*this, order, m, &smb_at_site, &site_of_smb, &visited))
      return false;
  }
  return true;
}

std::vector<std::int64_t> quantized_net_weights(const ClusteredDesign& cd,
                                                double timing_weight,
                                                const GridSize& grid) {
  std::vector<std::int64_t> weights;
  weights.reserve(cd.nets.size());
  double total = 0.0;
  for (const PlacedNet& pn : cd.nets) {
    const double w = (1.0 + timing_weight * pn.criticality) * kCostScale;
    NM_CHECK_MSG(w >= 0.0 && w < 0x1p32,
                 "net weight " << w / kCostScale << " outside fixed point");
    weights.push_back(std::llround(w));
    total += static_cast<double>(weights.back());
  }
  // Every cost, running sum and move delta is bounded by the weights' sum
  // times the largest hpwl; 2^62 leaves the double estimate its slack.
  const double max_hpwl = (grid.width - 1) + (grid.height - 1);
  NM_CHECK_MSG(total * max_hpwl < 0x1p62,
               "placement cost can overflow int64: total weight "
                   << total / kCostScale << " on a " << grid.width << "x"
                   << grid.height << " grid");
  return weights;
}

std::int64_t placement_cost(const ClusteredDesign& cd,
                            const Placement& placement,
                            double timing_weight) {
  const std::vector<std::int64_t> weights =
      quantized_net_weights(cd, timing_weight, placement.grid);
  std::int64_t cost = 0;
  for (std::size_t i = 0; i < cd.nets.size(); ++i)
    cost += weights[i] * net_hpwl(cd, placement, i);
  return cost;
}

PlacementResult place_design(const ClusteredDesign& cd,
                             const ArchParams& arch,
                             const PlacementOptions& options,
                             ThreadPool* pool) {
  // Fault boundary for the whole placement stage. Sequential code: hit N
  // is the Nth place_design call regardless of thread count.
  NM_FAULT_POINT("place.anneal");
  NM_TRACE_COUNT("place.calls", 1);
  const int restarts = std::max(1, options.restarts);
  NM_TRACE_COUNT("place.restarts", restarts);
  // Net count vs. distinct SMB sets: the annealer keeps one bounding box
  // per set, so the ratio is its collapse factor. count_smb_sets only
  // runs when tracing is on.
  NM_TRACE_COUNT("place.nets", static_cast<long>(cd.nets.size()));
  NM_TRACE_COUNT("place.smb_sets", count_smb_sets(cd));
  // One shared defect-legality table per placement (const after build, so
  // restart workers read it concurrently without synchronization).
  std::optional<PlaceLegality> legality;
  const PlaceLegality* legal = nullptr;
  if (arch.defects.active()) {
    legality.emplace(cd, arch, size_grid_for(cd.num_smbs));
    legal = &*legality;
    NM_TRACE_COUNT("defect.smb_masked", legality->dead_smb_sites());
    NM_TRACE_COUNT("defect.le_masked", legality->dead_le_slots());
  }
  std::vector<PlacementResult> candidates(
      static_cast<std::size_t>(restarts));
  std::vector<std::int64_t> costs(static_cast<std::size_t>(restarts));
  // Each restart is one pool task with its own RNG stream; restart r's
  // stream depends only on (options.seed, r), so the candidate set — and
  // therefore the winner — is the same at any thread count.
  pool_for_each(pool, restarts, [&](int r) {
    const std::size_t rr = static_cast<std::size_t>(r);
    PlacementOptions per = options;
    per.seed = derive_seed(options.seed, static_cast<std::uint64_t>(r));
    candidates[rr] = place_single(cd, per, legal);
    costs[rr] = placement_cost(cd, candidates[rr].placement, kTimingWeight);
  });

  // Lowest fixed-point cost wins; an exact tie goes to the lowest restart
  // index so the pick order is deterministic.
  int best = 0;
  for (int r = 1; r < restarts; ++r) {
    if (costs[static_cast<std::size_t>(r)] <
        costs[static_cast<std::size_t>(best)])
      best = r;
  }
  const std::size_t b = static_cast<std::size_t>(best);
  PlacementResult result = std::move(candidates[b]);
  result.winning_restart = best;
  result.cost = cost_to_double(costs[b]);
  result.wirelength =
      cost_to_double(placement_cost(cd, result.placement, 0.0));
  for (int r = 0; r < restarts; ++r) {
    if (r == best) continue;
    result.moves_attempted +=
        candidates[static_cast<std::size_t>(r)].moves_attempted;
    result.moves_accepted +=
        candidates[static_cast<std::size_t>(r)].moves_accepted;
  }
  NM_TRACE_COUNT("place.moves", result.moves_attempted);
  NM_TRACE_COUNT("place.accepted", result.moves_accepted);
  NM_TRACE_VALUE("place.cost", result.cost);
  NM_LOG(kDebug) << "placement: cost " << result.cost << " wl "
                 << result.wirelength << " (restart "
                 << best << " of " << restarts << ")";
  return result;
}

}  // namespace nanomap
