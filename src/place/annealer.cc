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

  // Incident lists, both ascending because sets and nets are visited in
  // id order, and duplicate-free because a set lists each SMB once — so
  // a self-feeding net or a repeated sink pin enters an SMB's lists once
  // and is never double-counted in the move-cost sums.
  sets_of_.assign(static_cast<std::size_t>(cd.num_smbs), {});
  nets_of_.assign(static_cast<std::size_t>(cd.num_smbs), {});
  for (int s = 0; s < boxes_.num_sets(); ++s)
    for (const int* m = boxes_.members_begin(s); m != boxes_.members_end(s);
         ++m)
      sets_of_[static_cast<std::size_t>(*m)].push_back(s);
  terms_.reserve(cd.nets.size());
  for (std::size_t i = 0; i < cd.nets.size(); ++i) {
    const int s = boxes_.set_of(static_cast<int>(i));
    terms_.push_back({1.0 + timing_weight * cd.nets[i].criticality, s});
    for (const int* m = boxes_.members_begin(s); m != boxes_.members_end(s);
         ++m)
      nets_of_[static_cast<std::size_t>(*m)].push_back(static_cast<int>(i));
  }
  // Sentinel entry terminating every list: the swap-move merges in
  // try_move run branch-light off it (no per-step bounds checks).
  for (std::vector<int>& list : sets_of_)
    list.push_back(std::numeric_limits<int>::max());
  for (std::vector<int>& list : nets_of_)
    list.push_back(std::numeric_limits<int>::max());

  // Summed in net order: bit-identical to the historical serial per-net
  // recompute loop.
  cost_ = cost();

  // Move-loop scratch: a move touches at most the union of two set
  // lists, so this sizing makes try_move allocation-free.
  std::size_t max_sets = 0;
  for (const std::vector<int>& list : sets_of_)
    max_sets = std::max(max_sets, list.size());
  touched_sets_.resize(2 * max_sets);
  touched_boxes_.resize(2 * max_sets);
  new_hpwl_.assign(static_cast<std::size_t>(boxes_.num_sets()), 0);
#ifdef NANOMAP_AUDIT_COST
  set_stamp_.assign(static_cast<std::size_t>(boxes_.num_sets()), 0);
#endif
}

double Annealer::cost() const {
  double c = 0.0;
  for (const NetTerm& t : terms_)
    c += t.weight * static_cast<double>(boxes_.hpwl(t.set));
  return c;
}

bool Annealer::try_move(double t, int rlim) {
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

  // Pass 1, over the touched sets: dry-run each box update on a scratch
  // copy and record the set's post-move hpwl. The cached boxes are
  // untouched until the move is accepted, so rejection needs no box
  // rollback at all. A set holding both swapped SMBs keeps its
  // coordinate multiset, so its box and hpwl stay as they are.
  bool hpwl_changed = false;
  auto visit_set = [&](int s, bool moved_mine, bool moved_theirs) {
    std::size_t ss = static_cast<std::size_t>(s);
#ifdef NANOMAP_AUDIT_COST
    NM_CHECK_MSG(set_stamp_[ss] != move_gen_,
                 "set " << s << " visited twice in one move");
    set_stamp_[ss] = move_gen_;
#endif
    if (moved_mine && moved_theirs) {
      new_hpwl_[ss] = boxes_.hpwl(s);
      return;
    }
    std::size_t k = static_cast<std::size_t>(n_touched_++);
    touched_sets_[k] = s;
    NetBox& nb = touched_boxes_[k];
    nb = boxes_.box(s);
    if (moved_mine)
      boxes_.move_member(&nb, s, fx, fy, tx, ty);
    else
      boxes_.move_member(&nb, s, tx, ty, fx, fy);
    new_hpwl_[ss] = nb.hpwl();
    hpwl_changed |= new_hpwl_[ss] != boxes_.hpwl(s);
  };
  const std::vector<int>& my_sets = sets_of_[static_cast<std::size_t>(smb)];
  const std::vector<int>& my_nets = nets_of_[static_cast<std::size_t>(smb)];
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

  // Pass 2, over the affected nets in ascending net order — for a swap,
  // a two-way merge of the two sorted net lists whose take-left /
  // take-right selection compiles to conditional moves. Each net folds
  // its pre-move and post-move cost products into `before` and `after`
  // in the exact floating-point order of the historical per-net
  // evaluation, so delta — and every accept/reject decision — is
  // bit-identical to the seed annealer. With no hpwl changed both sums
  // would be the same sequence, so delta is exactly 0.0 without them.
  double delta = 0.0;
  if (hpwl_changed) {
    double before = 0.0;
    double after = 0.0;
    auto add_net = [&](int net) {
      const NetTerm& term = terms_[static_cast<std::size_t>(net)];
      before += term.weight * static_cast<double>(boxes_.hpwl(term.set));
      after += term.weight * static_cast<double>(
                                 new_hpwl_[static_cast<std::size_t>(
                                     term.set)]);
    };
    if (other >= 0) {
      const std::vector<int>& their_nets =
          nets_of_[static_cast<std::size_t>(other)];
      std::size_t i = 0, j = 0;
      const std::size_t last = my_nets.size() + their_nets.size() - 2;
      while (i + j < last) {
        int a = my_nets[i];
        int b = their_nets[j];
        add_net(a < b ? a : b);
        i += static_cast<std::size_t>(a <= b);
        j += static_cast<std::size_t>(b <= a);
      }
    } else {
      for (std::size_t k = 0; k + 1 < my_nets.size(); ++k)
        add_net(my_nets[k]);
    }
    delta = after - before;
  }

  if (delta <= 0.0 ||
      (t > 0.0 && rng_->next_double() < std::exp(-delta / t))) {
    // Commit the dry-run boxes (store() keeps their hpwl in lockstep).
    for (int k = 0; k < n_touched_; ++k) {
      std::size_t kk = static_cast<std::size_t>(k);
      boxes_.store(touched_sets_[kk], touched_boxes_[kk]);
    }
    cost_ += delta;
    ++moves_accepted_;
    return true;
  }

  // Reject: roll back placement, site map and coordinate mirror; the
  // cached boxes were never written.
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
// Full-recompute cross-check of the incremental state. Box equality and
// the cost()-vs-placement_cost comparison are bit-exact by construction;
// only the *running* accumulated cost is allowed rounding drift.
void Annealer::audit_cost() const {
  for (int m = 0; m < cd_.num_smbs; ++m) {
    NM_CHECK_MSG(boxes_.x_of(m) == placement_.x_of(m) &&
                     boxes_.y_of(m) == placement_.y_of(m),
                 "audit: stale coordinate mirror for smb " << m);
  }
  for (int s = 0; s < boxes_.num_sets(); ++s) {
    NM_CHECK_MSG(boxes_.box(s) == boxes_.compute_box(s),
                 "audit: stale incremental bbox for smb set " << s);
    NM_CHECK_MSG(boxes_.hpwl(s) == boxes_.box(s).hpwl(),
                 "audit: stale cached hpwl for smb set " << s);
  }
  double scratch = placement_cost(cd_, placement_, timing_weight_);
  double exact = cost();
  NM_CHECK_MSG(exact == scratch, "audit: incremental cost "
                                     << exact << " != recomputed cost "
                                     << scratch);
  NM_CHECK_MSG(std::abs(cost_ - scratch) <=
                   1e-6 * std::max(1.0, std::abs(scratch)),
               "audit: running cost " << cost_ << " drifted from "
                                      << scratch);
}
#endif

void Annealer::run(double effort) {
  if (cd_.num_smbs <= 1 || cd_.nets.empty()) return;

  const int n = cd_.num_smbs;
  const long moves_per_t = std::max<long>(
      16, static_cast<long>(effort * std::pow(static_cast<double>(n),
                                              4.0 / 3.0)));

  // Initial temperature: 20 x std-dev of random move deltas (VPR).
  double sum = 0.0, sum2 = 0.0;
  const int samples = std::min(128, 8 * n);
  for (int i = 0; i < samples; ++i) {
    double c0 = cost_;
    try_move(1e18, placement_.grid.width);  // accept everything
    double d = cost_ - c0;
    sum += d;
    sum2 += d * d;
  }
  double mean = sum / samples;
  double var = std::max(0.0, sum2 / samples - mean * mean);
  double t = 20.0 * std::sqrt(var) + 1e-6;
#ifdef NANOMAP_AUDIT_COST
  audit_cost();
#endif

  int rlim = std::max(1, placement_.grid.width);
  const double exit_t =
      0.005 * std::max(1.0, cost_) / static_cast<double>(cd_.nets.size());

  while (t > exit_t) {
    long accepted = 0;
    for (long i = 0; i < moves_per_t; ++i) {
      if (try_move(t, rlim)) ++accepted;
    }
    // Runs on pool workers during placement restarts, so both sites
    // record only integral values (exact, order-independent totals).
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
  // Greedy cleanup at T = 0.
  for (long i = 0; i < moves_per_t; ++i) try_move(0.0, 1);
#ifdef NANOMAP_AUDIT_COST
  audit_cost();
#endif
}

}  // namespace nanomap
