#include "place/annealer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/trace.h"

namespace nanomap {

Annealer::Annealer(const ClusteredDesign& cd, const Placement& initial,
                   double timing_weight, Rng* rng,
                   const PlaceLegality* legal)
    : cd_(cd), placement_(initial), timing_weight_(timing_weight),
      rng_(rng), legal_(legal) {
  NM_CHECK(rng != nullptr);
  smb_at_site_.assign(static_cast<std::size_t>(placement_.grid.sites()), -1);
  for (int m = 0; m < cd.num_smbs; ++m) {
    int site = placement_.site_of_smb[static_cast<std::size_t>(m)];
    NM_CHECK_MSG(smb_at_site_[static_cast<std::size_t>(site)] == -1,
                 "two SMBs on site " << site);
    smb_at_site_[static_cast<std::size_t>(site)] = m;
  }
  boxes_.init(cd_, placement_);

  // Per-SMB set lists, ascending because sets are visited in id order.
  // Each ends in an INT_MAX sentinel so the swap-move merge in try_move
  // runs branch-light (no per-step bounds checks).
  sets_of_.assign(static_cast<std::size_t>(cd.num_smbs), {});
  for (int s = 0; s < boxes_.num_sets(); ++s)
    for (const int* m = boxes_.members_begin(s); m != boxes_.members_end(s);
         ++m)
      sets_of_[static_cast<std::size_t>(*m)].push_back(s);
  for (std::vector<int>& list : sets_of_)
    list.push_back(std::numeric_limits<int>::max());

  // Fold the quantized net weights into one weight per set (the range
  // check inside bounds every sum below).
  const std::vector<std::int64_t> net_weights =
      quantized_net_weights(cd, timing_weight, placement_.grid);
  set_weight_.assign(static_cast<std::size_t>(boxes_.num_sets()), 0);
  for (std::size_t i = 0; i < cd.nets.size(); ++i)
    set_weight_[static_cast<std::size_t>(
        boxes_.set_of(static_cast<int>(i)))] += net_weights[i];
  for (int s = 0; s < boxes_.num_sets(); ++s)
    cost_ += set_weight_[static_cast<std::size_t>(s)] * boxes_.hpwl(s);

  // Move-loop scratch: a move touches at most the union of two set
  // lists, so this sizing makes try_move allocation-free.
  std::size_t max_sets = 0;
  for (const std::vector<int>& list : sets_of_)
    max_sets = std::max(max_sets, list.size());
  touched_sets_.resize(2 * max_sets);
  touched_boxes_.resize(2 * max_sets);
#ifdef NANOMAP_AUDIT_COST
  set_stamp_.assign(static_cast<std::size_t>(boxes_.num_sets()), 0);
#endif
}

bool Annealer::try_move(double t, int rlim, std::int64_t* dry_delta) {
  ++moves_attempted_;
  if (cd_.num_smbs == 0) return false;
  int smb = static_cast<int>(rng_->next_below(
      static_cast<std::uint64_t>(cd_.num_smbs)));
  int from = placement_.site_of_smb[static_cast<std::size_t>(smb)];
  int fx = boxes_.x_of(smb);  // mirror of from % width / from / width
  int fy = boxes_.y_of(smb);
  int tx = std::clamp(fx + rng_->next_int(-rlim, rlim), 0,
                      placement_.grid.width - 1);
  int ty = std::clamp(fy + rng_->next_int(-rlim, rlim), 0,
                      placement_.grid.height - 1);
  int to = ty * placement_.grid.width + tx;
  if (to == from) return false;
  int other = smb_at_site_[static_cast<std::size_t>(to)];
  // Defective fabric: refuse any move/swap landing an SMB on a site it
  // cannot legally occupy. Sits after the coordinate draws and before
  // the acceptance draw so a defect-free run replays the exact
  // historical RNG stream.
  if (legal_ != nullptr &&
      (!legal_->ok(to, smb) || (other >= 0 && !legal_->ok(from, other)))) {
    NM_TRACE_COUNT("place.defect_rejects", 1);
    return false;
  }

#ifdef NANOMAP_AUDIT_COST
  ++move_gen_;
#endif
  n_touched_ = 0;

  // Apply the placement flip (and the cache's coordinate mirror) up front
  // so any shrink-edge rescan inside the box updates below reads every
  // member at its final site.
  placement_.site_of_smb[static_cast<std::size_t>(smb)] = to;
  smb_at_site_[static_cast<std::size_t>(to)] = smb;
  smb_at_site_[static_cast<std::size_t>(from)] = other;  // -1 if plain move
  boxes_.set_smb_xy(smb, tx, ty);
  if (other >= 0) {
    placement_.site_of_smb[static_cast<std::size_t>(other)] = from;
    boxes_.set_smb_xy(other, fx, fy);
  }

  // One pass over the touched sets: dry-run each box update on a scratch
  // copy and add the set's weighted hpwl change to the delta. The cached
  // boxes are untouched until the move is accepted, so rejection needs no
  // box rollback at all. A set holding both swapped SMBs keeps its
  // coordinate multiset, so its box and hpwl stay as they are.
  std::int64_t delta = 0;
  auto visit_set = [&](int s, bool moved_mine, bool moved_theirs) {
    std::size_t ss = static_cast<std::size_t>(s);
#ifdef NANOMAP_AUDIT_COST
    NM_CHECK_MSG(set_stamp_[ss] != move_gen_,
                 "set " << s << " visited twice in one move");
    set_stamp_[ss] = move_gen_;
#endif
    if (moved_mine && moved_theirs) return;
    std::size_t k = static_cast<std::size_t>(n_touched_++);
    touched_sets_[k] = s;
    NetBox& nb = touched_boxes_[k];
    nb = boxes_.box(s);
    const int hpwl = nb.hpwl();
    if (moved_mine)
      boxes_.move_member(&nb, s, fx, fy, tx, ty);
    else
      boxes_.move_member(&nb, s, tx, ty, fx, fy);
    delta += set_weight_[ss] * (nb.hpwl() - hpwl);
  };
  const std::vector<int>& my_sets = sets_of_[static_cast<std::size_t>(smb)];
  if (other >= 0) {
    const std::vector<int>& their_sets =
        sets_of_[static_cast<std::size_t>(other)];
    std::size_t i = 0, j = 0;
    const std::size_t last = my_sets.size() + their_sets.size() - 2;
    while (i + j < last) {
      int a = my_sets[i];
      int b = their_sets[j];
      bool take_a = a <= b;
      bool take_b = b <= a;  // both when the set holds both SMBs
      visit_set(take_a ? a : b, take_a, take_b);
      i += static_cast<std::size_t>(take_a);
      j += static_cast<std::size_t>(take_b);
    }
  } else {
    for (std::size_t k = 0; k + 1 < my_sets.size(); ++k)
      visit_set(my_sets[k], true, false);
  }

  if (dry_delta != nullptr) {
    *dry_delta = delta;
  } else if (delta <= 0 ||
             (t > 0.0 && rng_->next_double() <
                             std::exp(-cost_to_double(delta) / t))) {
    // Commit the dry-run boxes.
    for (int k = 0; k < n_touched_; ++k) {
      std::size_t kk = static_cast<std::size_t>(k);
      boxes_.store(touched_sets_[kk], touched_boxes_[kk]);
    }
    cost_ += delta;
    ++moves_accepted_;
    return true;
  }

  // Reject (and every dry run): roll back placement, site map and
  // coordinate mirror; the cached boxes were never written.
  placement_.site_of_smb[static_cast<std::size_t>(smb)] = from;
  smb_at_site_[static_cast<std::size_t>(from)] = smb;
  boxes_.set_smb_xy(smb, fx, fy);
  if (other >= 0) {
    placement_.site_of_smb[static_cast<std::size_t>(other)] = to;
    smb_at_site_[static_cast<std::size_t>(to)] = other;
    boxes_.set_smb_xy(other, tx, ty);
  } else {
    smb_at_site_[static_cast<std::size_t>(to)] = -1;
  }
  return false;
}

#ifdef NANOMAP_AUDIT_COST
// Full-recompute cross-check of the incremental state; every comparison
// is exact.
void Annealer::audit_cost() const {
  for (int m = 0; m < cd_.num_smbs; ++m) {
    NM_CHECK_MSG(boxes_.x_of(m) == placement_.x_of(m) &&
                     boxes_.y_of(m) == placement_.y_of(m),
                 "audit: stale coordinate mirror for smb " << m);
  }
  for (int s = 0; s < boxes_.num_sets(); ++s)
    NM_CHECK_MSG(boxes_.box(s) == boxes_.compute_box(s),
                 "audit: stale incremental bbox for smb set " << s);
  const std::int64_t scratch =
      placement_cost(cd_, placement_, timing_weight_);
  NM_CHECK_MSG(cost_ == scratch, "audit: running cost "
                                     << cost_ << " != recomputed cost "
                                     << scratch);
}
#endif

// Schedule constants, calibrated on bench/place_quality and the
// exhaustive oracle (DESIGN.md §5c). A hot start sets T0 to 20 standard
// deviations of the sampled move deltas (VPR); a cool start to 0.5 of
// them, so the anneal refines the placement it is given instead of
// melting it. An anneal is frozen, and stops, after kFrozenTemperatures
// consecutive temperatures in which no accepted move changed the cost.
constexpr double kHotStartSigmas = 20.0;
constexpr double kCoolStartSigmas = 0.5;
constexpr int kFrozenTemperatures = 3;

void Annealer::run(double effort, AnnealStart start) {
  if (cd_.num_smbs <= 1 || cd_.nets.empty()) return;

  const int n = cd_.num_smbs;
  const long moves_per_t = std::max<long>(
      16, static_cast<long>(effort * std::pow(static_cast<double>(n),
                                              4.0 / 3.0)));

  // Initial temperature from the spread of up to 128 random move deltas,
  // each a dry run that leaves the placement as it is.
  double sum = 0.0, sum2 = 0.0;
  const int samples = std::min(128, 8 * n);
  for (int i = 0; i < samples; ++i) {
    std::int64_t delta = 0;
    try_move(0.0, placement_.grid.width, &delta);
    double d = cost_to_double(delta);
    sum += d;
    sum2 += d * d;
  }
  double mean = sum / samples;
  double var = std::max(0.0, sum2 / samples - mean * mean);
  const double sigmas =
      start == AnnealStart::kHot ? kHotStartSigmas : kCoolStartSigmas;
  double t = sigmas * std::sqrt(var) + 1e-6;
#ifdef NANOMAP_AUDIT_COST
  audit_cost();
#endif

  int rlim = std::max(1, placement_.grid.width);
  const double exit_t =
      0.005 * std::max(1.0, cost_to_double(cost_)) /
      static_cast<double>(cd_.nets.size());

  int frozen = 0;  // consecutive temperatures with no cost change
  while (t > exit_t && frozen < kFrozenTemperatures) {
    long accepted = 0;
    bool changed = false;
    for (long i = 0; i < moves_per_t; ++i) {
      const std::int64_t c0 = cost_;
      if (try_move(t, rlim)) {
        ++accepted;
        changed |= cost_ != c0;
      }
    }
    frozen = changed ? 0 : frozen + 1;
    // Runs on pool workers during placement restarts, so every site
    // records only integral values (exact, order-independent totals).
    NM_TRACE_COUNT("place.temperatures", 1);
    NM_TRACE_VALUE("place.accepted_per_temp", accepted);
    double rate = static_cast<double>(accepted) /
                  static_cast<double>(moves_per_t);
    // VPR temperature update.
    if (rate > 0.96) {
      t *= 0.5;
    } else if (rate > 0.8) {
      t *= 0.9;
    } else if (rate > 0.15 && rlim > 1) {
      t *= 0.95;
    } else {
      t *= 0.8;
    }
    // Keep acceptance near 0.44 by shrinking the displacement window.
    double factor = 1.0 - 0.44 + rate;
    rlim = std::clamp(static_cast<int>(std::lround(rlim * factor)), 1,
                      placement_.grid.width);
#ifdef NANOMAP_AUDIT_COST
    audit_cost();
#endif
  }
  if (frozen >= kFrozenTemperatures) NM_TRACE_COUNT("place.frozen_exits", 1);
  // Greedy cleanup at T = 0.
  for (long i = 0; i < moves_per_t; ++i) try_move(0.0, 1);
#ifdef NANOMAP_AUDIT_COST
  audit_cost();
#endif
}

}  // namespace nanomap
