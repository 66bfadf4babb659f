// Incremental per-SMB-set bounding boxes for the temporal-placement
// annealer.
//
// The SA objective sums, per net, its quantized weight times the
// half-perimeter of the bounding box of its pins (driver SMB + sink SMBs).
// That box depends only on the net's *SMB set* — the sorted, deduplicated
// {driver_smb} ∪ sink_smbs — never on how many pins share an SMB. Every
// SMB hosts LEs from every folding cycle, so the per-cycle nets repeat the
// same few sets (ex1: 512 nets, 20 sets; ASPP4: 1,664 nets, 212 sets).
// This cache therefore keeps one box per distinct set, each set member
// counted as one pin, whose half-perimeter is the set's hpwl; set_of(net)
// maps each net to its set, which the annealer uses to fold the nets'
// weights into one weight per set.
//
// Each box is augmented with VPR-style boundary occupancy counts — how
// many set members sit exactly on each of the four box edges — so moving
// one member updates the box in O(1): a growing edge just moves to the
// member's new coordinate, landing on an edge increments its count, and
// leaving one decrements it. Only when the moved member was the *last*
// one on a shrinking edge is the new edge position unknown, and a rescan
// of that set's axis runs.
//
// The boxes are pure integer state (min/max coordinates + counts), so the
// incrementally maintained box is exactly — not approximately — the box a
// from-scratch scan would produce, and the integer cost derived from it
// equals a recompute.
//
// Rollback protocol: the cache never snapshots anything itself. A caller
// evaluating a speculative move copies the NetBox of every affected set,
// dry-runs the update on the copies (move_member), and commits them with
// store() only if the move is accepted — a rejected move never writes the
// cache. See Annealer::try_move.
#pragma once

#include <cstdint>
#include <vector>

#include "core/temporal_cluster.h"

#if defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define NANOMAP_BBOX_SSE2 1
#endif

namespace nanomap {

struct Placement;

// Bounding box of one SMB set plus edge-occupancy counts. A member whose
// coordinate equals an edge counts toward that edge; with a degenerate
// box (xmin == xmax) every member counts on both x edges, which keeps the
// update rules uniform. The field order — four edges then four counts —
// is load-bearing: the SSE2 update treats the struct as two 128-bit
// vectors, [xmin,xmax,ymin,ymax] and their counts.
struct NetBox {
  std::int32_t xmin = 0;
  std::int32_t xmax = 0;
  std::int32_t ymin = 0;
  std::int32_t ymax = 0;
  std::int32_t on_xmin = 0;  // members with x == xmin
  std::int32_t on_xmax = 0;
  std::int32_t on_ymin = 0;
  std::int32_t on_ymax = 0;

  int hpwl() const { return (xmax - xmin) + (ymax - ymin); }

  friend bool operator==(const NetBox& a, const NetBox& b) {
    return a.xmin == b.xmin && a.xmax == b.xmax && a.ymin == b.ymin &&
           a.ymax == b.ymax && a.on_xmin == b.on_xmin &&
           a.on_xmax == b.on_xmax && a.on_ymin == b.on_ymin &&
           a.on_ymax == b.on_ymax;
  }
};

// Number of distinct SMB sets among the nets of `cd` — the size of the
// cache NetBoxCache::init builds, without building it.
int count_smb_sets(const ClusteredDesign& cd);

class NetBoxCache {
 public:
  // Groups the nets of `cd` into distinct SMB sets — ids in order of first
  // appearance by net index — and builds each set's box at `placement`.
  // SMB coordinates are copied into flat per-SMB arrays — a rescan never
  // needs the site->x,y divisions — so after init the cache no longer
  // reads the placement: the caller reports coordinate changes through
  // set_smb_xy.
  void init(const ClusteredDesign& cd, const Placement& placement);

  int num_sets() const { return static_cast<int>(boxes_.size()); }
  int set_of(int net) const {
    return set_of_net_[static_cast<std::size_t>(net)];
  }
  // The ascending SMBs of set `s`.
  const int* members_begin(int s) const {
    return set_smbs_.data() + set_begin_[static_cast<std::size_t>(s)];
  }
  const int* members_end(int s) const {
    return set_smbs_.data() + set_begin_[static_cast<std::size_t>(s) + 1];
  }
  const NetBox& box(int s) const {
    return boxes_[static_cast<std::size_t>(s)];
  }
  int hpwl(int s) const { return box(s).hpwl(); }

  int x_of(int smb) const { return xs_[static_cast<std::size_t>(smb)]; }
  int y_of(int smb) const { return ys_[static_cast<std::size_t>(smb)]; }

  // Records that `smb` now sits at (x, y). Call before the box updates of
  // a move (rescans read these coordinates) and again on rollback.
  void set_smb_xy(int smb, int x, int y) {
    xs_[static_cast<std::size_t>(smb)] = x;
    ys_[static_cast<std::size_t>(smb)] = y;
  }

  // One member of set `s` moved (fx,fy)->(tx,ty); applied to a
  // caller-owned copy `b` of the set's box. Writing into `b` instead of
  // the cache is what makes speculative move evaluation cheap — the
  // annealer dry-runs every move on scratch copies and only store()s them
  // back on accept, so a rejected move never touches the cached boxes.
  // A swap whose two SMBs are both members leaves the set's coordinate
  // multiset — and so its box — unchanged; the caller skips that case.
  //
  // The two axes are independent: each takes its O(1) update, and one
  // whose move empties a shrinking edge is rebuilt by a single-axis
  // rescan. The rescan reads the coordinate mirror, so set_smb_xy must
  // already hold the moved SMBs' final sites. Inline: this sits in the
  // annealer's innermost loop; only the rescans are out-of-line calls.
  void move_member(NetBox* b, int s, int fx, int fy, int tx,
                   int ty) const {
#ifdef NANOMAP_BBOX_SSE2
    // Both axes, all four edges and counts, in one branch-free shot. A
    // nonzero mask means some lane needed a shrink-edge rescan and
    // nothing was stored: rescan the bailing axis (or axes) directly,
    // then re-run the vector update with that axis neutralized (old ==
    // new makes its lanes a no-op) so the surviving axis still gets its
    // O(1) update. The re-run cannot bail — its only live axis already
    // passed the bail test on identical inputs.
    unsigned bail = move_pin_sse2(b, fx, fy, tx, ty);
    if (bail == 0) return;
    if ((bail & 0x00FFu) != 0) {
      rescan_x(s, b);
      fx = tx;
    }
    if ((bail & 0xFF00u) != 0) {
      rescan_y(s, b);
      fy = ty;
    }
    if (fx != tx || fy != ty) move_pin_sse2(b, fx, fy, tx, ty);
#else
    if (!move_axis(fx, tx, &b->xmin, &b->on_xmin, &b->xmax, &b->on_xmax))
      rescan_x(s, b);
    if (!move_axis(fy, ty, &b->ymin, &b->on_ymin, &b->ymax, &b->on_ymax))
      rescan_y(s, b);
#endif
  }

  // From-scratch box of set `s` at the mirrored coordinates (the audit
  // oracle for the incremental state).
  NetBox compute_box(int s) const;

  // Writes a box into the cache slot of set `s` — committing a dry-run
  // update on move acceptance.
  void store(int s, const NetBox& b) {
    boxes_[static_cast<std::size_t>(s)] = b;
  }

  // One-axis update for a member moving from `old_c` to `new_c` within
  // the edge pair [*lo, *hi] and its counts. Returns false when the
  // member was the sole occupant of a shrinking edge (new edge unknown →
  // rescan). Written so that everything except the rarely-taken rescan
  // bail compiles to conditional moves: the edge-coincidence comparisons
  // are data-dependent and would otherwise mispredict constantly. The
  // portable path of move_member; SSE2 hosts take move_pin_sse2. Public
  // so tests can drive it on hosts where move_member never calls it.
  static bool move_axis(int old_c, int new_c, std::int32_t* lo,
                        std::int32_t* n_lo, std::int32_t* hi,
                        std::int32_t* n_hi) {
    if (new_c < old_c) {
      // Shrinking side: leaving the hi edge.
      bool on_hi = (old_c == *hi);
      if (on_hi && *n_hi == 1) return false;
      *n_hi -= static_cast<std::int32_t>(on_hi);
      // Growing side.
      bool grow = (new_c < *lo);
      *n_lo = grow ? 1 : *n_lo + static_cast<std::int32_t>(new_c == *lo);
      *lo = grow ? new_c : *lo;
    } else if (new_c > old_c) {
      bool on_lo = (old_c == *lo);
      if (on_lo && *n_lo == 1) return false;
      *n_lo -= static_cast<std::int32_t>(on_lo);
      bool grow = (new_c > *hi);
      *n_hi = grow ? 1 : *n_hi + static_cast<std::int32_t>(new_c == *hi);
      *hi = grow ? new_c : *hi;
    }
    return true;
  }

 private:
#ifdef NANOMAP_BBOX_SSE2
  // One member of `b` moved (fx,fy)->(tx,ty), both axes at once. NetBox
  // is laid out as four edges then four counts, so the two 128-bit
  // vectors are [xmin,xmax,ymin,ymax] and their counts; all the
  // edge-coincidence comparisons that mispredict in scalar code become
  // lane masks. An unchanged axis degrades to a lane-wise no-op (its
  // away/grow/arrive masks all come out false). Returns the bail
  // byte-mask — nonzero (with the box completely untouched) when some
  // lane would empty a shrinking edge: bits 0-7 flag the x axis, bits
  // 8-15 the y axis, and the caller must rescan those.
  static unsigned move_pin_sse2(NetBox* b, int fx, int fy, int tx,
                                int ty) {
    __m128i e =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&b->xmin));
    __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(&b->on_xmin));
    const __m128i oldv = _mm_set_epi32(fy, fy, fx, fx);
    const __m128i newv = _mm_set_epi32(ty, ty, tx, tx);
    // Lanes 0 and 2 are the min edges, 1 and 3 the max edges.
    const __m128i lo_lane = _mm_set_epi32(0, -1, 0, -1);
    const __m128i ones = _mm_set1_epi32(1);
    __m128i gt = _mm_cmpgt_epi32(newv, oldv);  // new > old
    __m128i lt = _mm_cmpgt_epi32(oldv, newv);  // new < old
    // Member moving away from its edge: off a min edge when growing the
    // coordinate, off a max edge when shrinking it.
    __m128i away = _mm_or_si128(_mm_and_si128(lo_lane, gt),
                                _mm_andnot_si128(lo_lane, lt));
    __m128i leaving = _mm_and_si128(_mm_cmpeq_epi32(oldv, e), away);
    __m128i bail = _mm_and_si128(leaving, _mm_cmpeq_epi32(c, ones));
    unsigned bail_mask = static_cast<unsigned>(_mm_movemask_epi8(bail));
    if (bail_mask != 0) return bail_mask;
    // Member pushing an edge outward / landing exactly on one.
    __m128i below = _mm_cmpgt_epi32(e, newv);  // new < edge
    __m128i above = _mm_cmpgt_epi32(newv, e);  // new > edge
    __m128i grow = _mm_or_si128(_mm_and_si128(lo_lane, below),
                                _mm_andnot_si128(lo_lane, above));
    __m128i changed = _mm_or_si128(gt, lt);
    __m128i arrive =
        _mm_and_si128(_mm_cmpeq_epi32(newv, e), changed);
    // count' = grow ? 1 : count + arrive - leaving  (masks are -1).
    __m128i cc = _mm_add_epi32(_mm_sub_epi32(c, arrive), leaving);
    cc = _mm_or_si128(_mm_and_si128(grow, ones),
                      _mm_andnot_si128(grow, cc));
    __m128i ee = _mm_or_si128(_mm_and_si128(grow, newv),
                              _mm_andnot_si128(grow, e));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&b->xmin), ee);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(&b->on_xmin), cc);
    return 0;
  }
#endif

  // Single-axis from-scratch rebuilds (shrink-edge rescan fallbacks);
  // deliberately out of line — they are the cold path.
  void rescan_x(int s, NetBox* b) const;
  void rescan_y(int s, NetBox* b) const;

  std::vector<int> set_of_net_;   // net -> set id
  std::vector<int> set_begin_;    // set -> offset into set_smbs_ (+ end)
  std::vector<int> set_smbs_;     // concatenated ascending member lists
  std::vector<NetBox> boxes_;     // set -> box
  std::vector<std::int32_t> xs_;  // smb -> x (mirror of the placement)
  std::vector<std::int32_t> ys_;  // smb -> y
};

}  // namespace nanomap
