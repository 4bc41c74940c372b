// Match1 steps 3–4: cut the list at label local minima, then walk each of
// the resulting constant-length sublists taking every other pointer.
// Shared by Match1, Match3 and Match4, which differ only in how they
// produce the constant-alphabet pointer labels fed in here.
//
// Pointer labels: plabel[v] is the label of pointer e_v = <v, suc(v)>;
// adjacent real pointers must carry different labels (a matching
// partition, enforced by LLMP_DCHECK and by the callers' contracts).
//
// Cut rule (paper step 3, with explicit boundary convention): e_v is cut
// iff both neighbour pointers exist and plabel is a strict local minimum
// at v. Boundary pointers are never cut, hence no two cut pointers are
// adjacent, hence the pointer after a cut is always the first of a run and
// is always taken — which is what makes the matching maximal (the cut
// pointer's head endpoint is covered). Runs between cuts are valley-free
// label sequences over an alphabet of size A, so their length is at most
// 2A−1: the per-head walk is a bounded sequential subroutine and the step
// declares that bound as its unit cost.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/fanout.h"
#include "list/linked_list.h"
#include "pram/arena.h"
#include "pram/stats.h"
#include "pram/sweep.h"
#include "support/check.h"
#include "support/types.h"

namespace llmp::core {

struct CutStats {
  std::size_t cuts = 0;     ///< pointers deleted in step 3
  std::size_t max_run = 0;  ///< longest sublist walked in step 4
};

/// Execute steps 3–4. `alphabet` is an upper bound on plabel values + 1
/// (6 for the fixed-point labels; 3 for Match4's WalkDown output).
/// `pred` is the predecessor array; `in_matching` receives the result.
template <class Exec>
CutStats cut_and_walk(Exec& exec, const list::LinkedList& list,
                      const std::vector<index_t>& pred,
                      const std::vector<label_t>& plabel, label_t alphabet,
                      std::vector<std::uint8_t>& in_matching) {
  const std::size_t n = list.size();
  LLMP_CHECK(plabel.size() == n);
  LLMP_CHECK(pred.size() == n);
  in_matching.assign(n, 0);
  if (n <= 1) return {};
  const auto& next = list.next_array();
  const std::size_t max_run = 2 * static_cast<std::size_t>(alphabet) - 1;
  const std::size_t dist =
      static_cast<std::size_t>(pram::tuning().prefetch.distance);

  // Step 3: mark cut pointers. Each processor reads three label cells
  // (its own pointer's and both neighbours') — CREW. Constant-alphabet
  // labels fit a byte, so they are narrowed first and the neighbour chases
  // touch an n-byte array instead of the 8n-byte input; the wide labels
  // are the fallback above 256.
  auto cut_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& cut = *cut_h;
  auto mark_cuts = [&](const auto& labels) {
    using LabelT = typename std::decay_t<decltype(labels)>::value_type;
    pram::range_step(exec, n, 1, [&, dist](std::size_t lo, std::size_t hi,
                                           auto&& m) {
      const std::span<const index_t> nx = next, pr = pred;
      const std::span<const LabelT> pl = labels;
      const std::span<std::uint8_t> cf = cut;
      for (std::size_t v = lo; v < hi; ++v) {
        if (dist != 0 && v + dist < hi) {
          const index_t pf_n = m.rd(nx, v + dist);
          const index_t pf_p = m.rd(pr, v + dist);
          if (pf_n != knil) {
            pram::prefetch_ro(pl.data() + pf_n);
            pram::prefetch_ro(nx.data() + pf_n);
          }
          if (pf_p != knil) pram::prefetch_ro(pl.data() + pf_p);
        }
        const index_t nv = m.rd(nx, v);
        if (nv == knil) continue;             // no pointer e_v
        const index_t pv = m.rd(pr, v);
        if (pv == knil) continue;             // boundary: never cut
        if (m.rd(nx, nv) == knil) continue;
        const LabelT here = m.rd(pl, v);
        const LabelT before = m.rd(pl, pv);
        const LabelT after = m.rd(pl, nv);
        LLMP_DCHECK(here != before && here != after);
        if (before > here && here < after) m.wr(cf, v, std::uint8_t{1});
      }
    });
  };
  if (alphabet <= 256) {
    auto pl8_h = pram::scratch<std::uint8_t>(exec, n);
    std::vector<std::uint8_t>& pl8 = *pl8_h;
    std::transform(plabel.begin(), plabel.end(), pl8.begin(),
                   [](label_t x) { return static_cast<std::uint8_t>(x); });
    mark_cuts(pl8);
  } else {
    mark_cuts(plabel);
  }

  // Step 4: each sublist head walks its run, taking alternate pointers.
  // A head is a node whose pointer exists and whose predecessor pointer is
  // absent or cut. Every run's first pointer is taken. Walks may leave
  // their chunk: they only read cells no walker writes this step, and the
  // written cells (in_matching, run_len) are disjoint per run. Runs are
  // bounded by 2·alphabet − 1, so the audit column fits uint32.
  auto run_len_h = pram::scratch<std::uint32_t>(exec, n);
  std::vector<std::uint32_t>& run_len = *run_len_h;
  pram::range_step(exec, n, max_run, [&, dist, max_run](
                                         std::size_t lo, std::size_t hi,
                                         auto&& m) {
    const std::span<const index_t> nx = next, pr = pred;
    const std::span<const std::uint8_t> cf = cut;
    const std::span<std::uint8_t> matched = in_matching;
    const std::span<std::uint32_t> rl = run_len;
    for (std::size_t v = lo; v < hi; ++v) {
      if (dist != 0 && v + dist < hi) {
        const index_t pf_p = m.rd(pr, v + dist);
        if (pf_p != knil) pram::prefetch_ro(cf.data() + pf_p);
      }
      const index_t pv = m.rd(pr, v);
      if (m.rd(nx, v) == knil) continue;
      if (pv != knil && !m.rd(cf, pv)) continue;
      // v heads a run (cut pointers head nothing: no two cuts are adjacent,
      // and a head's own pointer is never cut — see header comment).
      std::size_t len = 0;
      bool take = true;
      index_t u = static_cast<index_t>(v);
      for (;;) {
        ++len;
        LLMP_CHECK_MSG(len <= max_run, "run exceeds 2·alphabet − 1");
        if (take) m.wr(matched, u, std::uint8_t{1});
        take = !take;
        const index_t u2 = m.rd(nx, u);
        if (m.rd(nx, u2) == knil) break;
        if (m.rd(cf, u2)) break;  // run ends
        u = u2;
      }
      m.wr(rl, v, static_cast<std::uint32_t>(len));
    }
  });

  CutStats stats;
  for (index_t v = 0; v < n; ++v) {
    stats.max_run =
        std::max(stats.max_run, static_cast<std::size_t>(run_len[v]));
    stats.cuts += cut[v];
  }
  return stats;
}

/// EREW variant of cut_and_walk: every neighbour read that had multiple
/// simultaneous readers (plabel of the two adjacent pointers, pointer
/// existence of the successor, cut flag of the predecessor pointer) is
/// replaced by a pushed inbox, read exclusively. Costs 4 extra fan-out
/// steps; same output (tested).
template <class Exec>
CutStats cut_and_walk_erew(Exec& exec, const list::LinkedList& list,
                           const std::vector<index_t>& pred,
                           const std::vector<label_t>& plabel,
                           label_t alphabet,
                           std::vector<std::uint8_t>& in_matching) {
  const std::size_t n = list.size();
  LLMP_CHECK(plabel.size() == n);
  LLMP_CHECK(pred.size() == n);
  in_matching.assign(n, 0);
  if (n <= 1) return {};
  const auto& next = list.next_array();
  const std::size_t max_run = 2 * static_cast<std::size_t>(alphabet) - 1;
  constexpr label_t kNoLbl = kno_label;

  // Inboxes: neighbour pointer labels and whether the successor has a
  // pointer of its own.
  auto lbl_prev_h = pram::scratch<label_t>(exec, n, kNoLbl);
  auto lbl_next_h = pram::scratch<label_t>(exec, n, kNoLbl);
  std::vector<label_t>& lbl_prev = *lbl_prev_h;
  std::vector<label_t>& lbl_next = *lbl_next_h;
  pull_from_pred(exec, list, plabel, lbl_prev, /*circular=*/false);
  pull_from_next(exec, list, pred, plabel, lbl_next, /*circular=*/false);
  auto has_ptr_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& has_ptr = *has_ptr_h;
  exec.step(n, [&](std::size_t v, auto&& m) {
    m.wr(has_ptr, v, static_cast<std::uint8_t>(m.rd(next, v) != knil));
  });
  auto next_has_ptr_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& next_has_ptr = *next_has_ptr_h;
  pull_from_next(exec, list, pred, has_ptr, next_has_ptr, false);

  // Step 3 (EREW): every read is of the processor's own cells.
  auto cut_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& cut = *cut_h;
  exec.step(n, [&](std::size_t v, auto&& m) {
    if (!m.rd(has_ptr, v)) return;
    if (m.rd(pred, v) == knil) return;        // boundary: never cut
    if (!m.rd(next_has_ptr, v)) return;       // successor pointer missing
    const label_t here = m.rd(plabel, v);
    const label_t before = m.rd(lbl_prev, v);
    const label_t after = m.rd(lbl_next, v);
    LLMP_DCHECK(here != before && here != after);
    if (before > here && here < after) m.wr(cut, v, std::uint8_t{1});
  });

  // Head detection needs the predecessor pointer's cut flag: push it.
  auto cut_prev_h = pram::scratch<std::uint8_t>(exec, n);
  std::vector<std::uint8_t>& cut_prev = *cut_prev_h;
  pull_from_pred(exec, list, cut, cut_prev, false);

  // Step 4: walks are disjoint, so the traversal reads are exclusive; the
  // only cross-run reads (cut flag and pointer-existence of the boundary
  // pointer) touch cells no other walker reads this step.
  CutStats stats;
  auto run_len_h = pram::scratch<std::size_t>(exec, n);
  std::vector<std::size_t>& run_len = *run_len_h;
  exec.step(n, max_run, [&](std::size_t v, auto&& m) {
    if (!m.rd(has_ptr, v)) return;
    if (m.rd(pred, v) != knil && !m.rd(cut_prev, v)) return;
    std::size_t len = 0;
    bool take = true;
    index_t u = static_cast<index_t>(v);
    for (;;) {
      ++len;
      LLMP_CHECK_MSG(len <= max_run, "run exceeds 2·alphabet − 1");
      if (take)
        m.wr(in_matching, static_cast<std::size_t>(u), std::uint8_t{1});
      take = !take;
      const index_t u2 = m.rd(next, static_cast<std::size_t>(u));
      if (m.rd(next, static_cast<std::size_t>(u2)) == knil) break;
      if (m.rd(cut, static_cast<std::size_t>(u2))) break;
      u = u2;
    }
    m.wr(run_len, v, len);
  });

  for (index_t v = 0; v < n; ++v) {
    stats.max_run = std::max(stats.max_run, run_len[v]);
    stats.cuts += cut[v];
  }
  return stats;
}

}  // namespace llmp::core
