// The processor-scheduling technique of §3: the 2D layout, WalkDown1
// (Lemma 6) and WalkDown2 (Lemma 7 + Corollaries 1–2).
//
// The array holding the list is viewed as x rows × y columns
// (column-major: column j owns array cells [j·x, j·x + x)), one processor
// per column. Each processor sorts its own column by the pointers'
// matching-set numbers — a *sequential* integer sort of x keys, O(x) time,
// replacing Match2's global sort. A pointer <a,b> is intra-row when a and
// b land on the same row of the sorted layout, inter-row otherwise.
//
// WalkDown1 processes inter-row pointers: at step t every processor
// handles the pointer whose tail sits in row t of its column. Two
// pointers sharing a node are adjacent, <a,b> and <b,c>; they are handled
// at steps row(a) and row(b), which differ precisely because <a,b> is
// inter-row — so concurrent labelings never touch a common node and a
// greedy choice from {0,1,2} (different from both neighbour pointers'
// current labels) is safe.
//
// WalkDown2 processes intra-row pointers: each processor walks its sorted
// column with a (count, index) pair over 2x−1 steps, handling the cell at
// `index` exactly when its set number equals `count` (Lemma 7: the cell
// in row r is handled at step r + A[r]; Corollary 1: everything is handled
// by step 2x−2; Corollary 2: cells handled concurrently in one row share
// one set number). Intra-row pointers that share a node lie in the same
// row (both endpoints of each are in that row) and in different sets, so
// they are handled at different steps; their inter-row neighbours were
// fully labeled by WalkDown1 beforehand.
//
// Both phases draw from the shared palette {0,1,2}: every adjacent pair
// of pointers is handled at distinct (phase, step) times, so the later one
// sees and avoids the earlier one's label — a proper 3-set matching
// partition of all pointers, which cut.h turns into a maximal matching.
// (The paper labels the two phases from separate palettes "with minor
// adjustment"; the shared palette is the same schedule and is verified by
// the E7/E8 property tests.)
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/fanout.h"
#include "core/match_result.h"
#include "list/linked_list.h"
#include "pram/arena.h"
#include "pram/stats.h"
#include "pram/sweep.h"
#include "support/check.h"
#include "support/types.h"

namespace llmp::core {

/// No color assigned yet (valid colors are 0,1,2).
inline constexpr std::uint8_t kNoColor = 0xFF;

/// The sorted 2D view of the list. The arrays are arena leases (pooled
/// when built through a pram::Context, plain heap otherwise), so the
/// struct is move-only and its backing stores recycle across warm runs.
struct Layout2D {
  std::size_t rows = 0;  ///< x
  std::size_t cols = 0;  ///< y = ceil(n/x)
  /// cell_node[j*rows + r]: node in (row r, column j); knil for padding
  /// cells of the last column.
  pram::ScratchVec<index_t> cell_node;
  /// node_row[v]: the row node v occupies after its column's sort.
  pram::ScratchVec<index_t> node_row;
  /// node_key[v]: the matching-set number the columns were sorted by.
  pram::ScratchVec<index_t> node_key;
};

/// Sort every column by set number (keys[v] < rows for all v). One step of
/// `cols` processors, each running an O(rows)-time sequential counting
/// sort of its own cells — the unit cost declares 2·rows+2 accordingly.
template <class Exec>
Layout2D build_layout(Exec& exec, std::size_t n,
                      const std::vector<index_t>& keys, std::size_t rows) {
  LLMP_CHECK(rows >= 1);
  LLMP_CHECK(keys.size() == n);
  Layout2D lay;
  lay.rows = rows;
  lay.cols = (n + rows - 1) / rows;
  lay.cell_node = pram::scratch<index_t>(exec, lay.rows * lay.cols, knil);
  lay.node_row = pram::scratch<index_t>(exec, n, index_t{0});
  lay.node_key = pram::scratch<index_t>(exec, n);
  std::copy(keys.begin(), keys.end(), lay.node_key.vec().begin());

  // Per-column histograms, hoisted into one zero-filled lease so the step
  // body allocates nothing (column j owns slice [j·(rows+1), (j+1)·(rows+1))
  // — processor-local, hence untracked, exactly like the per-column local
  // vector it replaces).
  auto hist_h = pram::scratch<std::size_t>(exec, lay.cols * (rows + 1));
  std::vector<std::size_t>& hist = *hist_h;

  exec.step(lay.cols, 2 * rows + 2, [&](std::size_t j, auto&& m) {
    const std::size_t lo = j * rows;
    const std::size_t hi = std::min(n, lo + rows);
    // Sequential counting sort of the column's cells by key — processor-
    // local histogram, shared writes only to this column's cells.
    std::size_t* count = hist.data() + j * (rows + 1);
    for (std::size_t v = lo; v < hi; ++v) {
      const index_t k = m.rd(keys, v);
      LLMP_DCHECK(k < rows);
      ++count[k + 1];
    }
    for (std::size_t k = 1; k <= rows; ++k) count[k] += count[k - 1];
    for (std::size_t v = lo; v < hi; ++v) {
      const index_t k = m.rd(keys, v);
      const std::size_t r = count[k]++;
      m.wr(lay.cell_node, lo + r, static_cast<index_t>(v));
      m.wr(lay.node_row, v, static_cast<index_t>(r));
    }
  });
  return lay;
}

/// Whether pointer e_v is intra-row under the layout. Precondition:
/// e_v exists (succ_of[v] != knil).
inline bool is_intra_row(const Layout2D& lay,
                         const std::vector<index_t>& succ_of, index_t v) {
  LLMP_DCHECK(v < succ_of.size() && v < lay.node_row.size());
  LLMP_DCHECK(succ_of[v] < lay.node_row.size());
  return lay.node_row[v] == lay.node_row[succ_of[v]];
}

/// Greedy color: smallest of {0,1,2} not used by either neighbour pointer.
inline std::uint8_t smallest_free_color(std::uint8_t a, std::uint8_t b) {
  for (std::uint8_t c = 0; c < 3; ++c)
    if (c != a && c != b) return c;
  LLMP_CHECK_MSG(false, "two neighbours exhausted three colors");
  return kNoColor;
}

/// WalkDown1 (Lemma 6): label every inter-row pointer. x steps of y
/// processors. `color` must be kNoColor-initialized, size n.
template <class Exec>
void walkdown1(Exec& exec, const list::LinkedList& list, const Layout2D& lay,
               const std::vector<index_t>& pred,
               std::vector<std::uint8_t>& color) {
  const auto& next = list.next_array();
  const std::size_t rows = lay.rows;
  const std::size_t dist =
      static_cast<std::size_t>(pram::tuning().prefetch.distance);
  for (std::size_t t = 0; t < rows; ++t) {
    pram::range_step(exec, lay.cols, 1, [&, t, rows, dist](
                                            std::size_t lo, std::size_t hi,
                                            auto&& m) {
      const std::span<const index_t> cell = lay.cell_node.vec(), nx = next,
                                     row = lay.node_row.vec(), pr = pred;
      const std::span<std::uint8_t> col = color;
      for (std::size_t j = lo; j < hi; ++j) {
        if (dist != 0 && j + dist < hi)
          pram::prefetch_ro(cell.data() + (j + dist) * rows + t);
        const index_t v = m.rd(cell, j * rows + t);
        if (v == knil) continue;  // padding cell
        const index_t s = m.rd(nx, v);
        if (s == knil) continue;  // tail: no pointer
        if (m.rd(row, v) == m.rd(row, s)) continue;  // intra-row: WalkDown2
        const index_t pv = m.rd(pr, v);
        const std::uint8_t before = pv == knil ? kNoColor : m.rd(col, pv);
        const std::uint8_t after = m.rd(col, s);
        m.wr(col, v, smallest_free_color(before, after));
      }
    });
  }
}

/// Per-step trace of WalkDown2, kept for the Lemma 7 / Corollary audits
/// (E8): handled_at[v] = the step at which node v's cell was handled.
/// `handled_at` is an arena lease (move-only, recycled like Layout2D's).
struct WalkDown2Trace {
  pram::ScratchVec<index_t> handled_at;
  std::size_t steps = 0;
};

/// WalkDown2 (Lemma 7): walk the sorted columns with (count, index),
/// labeling intra-row pointers. 2x−1 steps of y processors.
template <class Exec>
WalkDown2Trace walkdown2(Exec& exec, const list::LinkedList& list,
                         const Layout2D& lay,
                         const std::vector<index_t>& pred,
                         std::vector<std::uint8_t>& color) {
  const std::size_t n = list.size();
  const auto& next = list.next_array();
  WalkDown2Trace trace;
  trace.handled_at = pram::scratch<index_t>(exec, n, knil);
  const std::size_t total_steps = lay.rows == 0 ? 0 : 2 * lay.rows - 1;
  trace.steps = total_steps;

  auto count_h = pram::scratch<index_t>(exec, lay.cols);
  auto index_h = pram::scratch<index_t>(exec, lay.cols);
  std::vector<index_t>& count = *count_h;
  std::vector<index_t>& index = *index_h;

  const std::size_t rows = lay.rows;
  const std::size_t dist =
      static_cast<std::size_t>(pram::tuning().prefetch.distance);
  pram::range_step(exec, lay.cols, 1,
                   [&](std::size_t lo, std::size_t hi, auto&& m) {
    for (std::size_t j = lo; j < hi; ++j) {
      m.wr(count, j, index_t{0});
      m.wr(index, j, index_t{0});
    }
  });

  for (std::size_t k = 0; k < total_steps; ++k) {
    pram::range_step(exec, lay.cols, 1, [&, k, rows, dist](
                                            std::size_t lo, std::size_t hi,
                                            auto&& m) {
      const std::span<const index_t> cell = lay.cell_node.vec(), nx = next,
                                     row = lay.node_row.vec(),
                                     key = lay.node_key.vec(), pr = pred;
      const std::span<index_t> cnt_a = count, idx_a = index,
                               done = trace.handled_at.vec();
      const std::span<std::uint8_t> col = color;
      for (std::size_t j = lo; j < hi; ++j) {
        const index_t idx = m.rd(idx_a, j);
        if (idx >= rows) continue;  // column fully walked
        // The hint reads index[j + dist] before its own processor, later
        // in this chunk, writes it: the step-start value, as required.
        if (dist != 0 && j + dist < hi) {
          const index_t ahead = m.rd(idx_a, j + dist);
          if (ahead < rows)
            pram::prefetch_ro(cell.data() + (j + dist) * rows + ahead);
        }
        const index_t v = m.rd(cell, j * rows + idx);
        if (v == knil) {  // padding: walk straight past
          m.wr(idx_a, j, static_cast<index_t>(idx + 1));
          continue;
        }
        const index_t cnt = m.rd(cnt_a, j);
        if (m.rd(key, v) != cnt) {  // idle in this row, advance the count
          m.wr(cnt_a, j, static_cast<index_t>(cnt + 1));
          continue;
        }
        // "Mark the cell": handle the pointer if it is intra-row.
        m.wr(done, v, static_cast<index_t>(k));
        const index_t s = m.rd(nx, v);
        if (s != knil && m.rd(row, v) == m.rd(row, s)) {
          const index_t pv = m.rd(pr, v);
          const std::uint8_t before = pv == knil ? kNoColor : m.rd(col, pv);
          const std::uint8_t after = m.rd(col, s);
          m.wr(col, v, smallest_free_color(before, after));
        }
        m.wr(idx_a, j, static_cast<index_t>(idx + 1));
      }
    });
  }
  return trace;
}

// ---------------------------------------------------------------------------
// EREW variants. The CREW WalkDowns read three neighbour cells per handled
// pointer (the successor's row, and both neighbour pointers' colors);
// under EREW those reads are replaced by per-node inboxes: the successor
// row is fanned out once after the layout is built, and every processor
// that colors a pointer *pushes* the color to the two neighbours' inboxes
// in the same step (exclusive writes — one predecessor, one successor;
// adjacent pointers are handled at distinct steps, so the push never
// collides with the read). Audited by pram::Machine(kEREW) in
// tests/erew_test.cpp.
// ---------------------------------------------------------------------------

/// Shared EREW state for the two WalkDown phases (arena leases, move-only).
struct ErewWalkState {
  pram::ScratchVec<index_t> row_next;       ///< node_row[suc(v)], knil if none
  pram::ScratchVec<std::uint8_t> col_prev;  ///< color of e_pred(v) so far
  pram::ScratchVec<std::uint8_t> col_next;  ///< color of e_suc(v) so far
};

template <class Exec>
ErewWalkState make_erew_walk_state(Exec& exec, const list::LinkedList& list,
                                   const Layout2D& lay,
                                   const std::vector<index_t>& pred) {
  const std::size_t n = list.size();
  ErewWalkState st;
  st.row_next = pram::scratch<index_t>(exec, n, knil);
  st.col_prev = pram::scratch<std::uint8_t>(exec, n, kNoColor);
  st.col_next = pram::scratch<std::uint8_t>(exec, n, kNoColor);
  pull_from_next(exec, list, pred, lay.node_row.vec(), st.row_next.vec(),
                 /*circular=*/false);
  return st;
}

namespace detail {
/// Color pointer e_v from its inboxes and push the choice to both
/// neighbours. All accesses exclusive.
template <class Mem>
void erew_color_and_push(Mem&& m, const std::vector<index_t>& pred,
                         ErewWalkState& st,
                         std::vector<std::uint8_t>& color, index_t v,
                         index_t s) {
  const std::uint8_t pick = smallest_free_color(
      m.rd(st.col_prev, static_cast<std::size_t>(v)),
      m.rd(st.col_next, static_cast<std::size_t>(v)));
  m.wr(color, static_cast<std::size_t>(v), pick);
  // e_v is the predecessor pointer of node s and the successor pointer of
  // node pred(v).
  m.wr(st.col_prev, static_cast<std::size_t>(s), pick);
  const index_t pv = m.rd(pred, static_cast<std::size_t>(v));
  if (pv != knil)
    m.wr(st.col_next, static_cast<std::size_t>(pv), pick);
}
}  // namespace detail

/// EREW WalkDown1: same schedule as walkdown1, inbox-based coloring.
template <class Exec>
void walkdown1_erew(Exec& exec, const list::LinkedList& list,
                    const Layout2D& lay, const std::vector<index_t>& pred,
                    ErewWalkState& st, std::vector<std::uint8_t>& color) {
  const auto& next = list.next_array();
  for (std::size_t t = 0; t < lay.rows; ++t) {
    exec.step(lay.cols, [&](std::size_t j, auto&& m) {
      const index_t v = m.rd(lay.cell_node, j * lay.rows + t);
      if (v == knil) return;
      const index_t s = m.rd(next, static_cast<std::size_t>(v));
      if (s == knil) return;
      if (m.rd(lay.node_row, static_cast<std::size_t>(v)) ==
          m.rd(st.row_next, static_cast<std::size_t>(v)))
        return;  // intra-row
      detail::erew_color_and_push(m, pred, st, color, v, s);
    });
  }
}

/// EREW WalkDown2: same (count, index) schedule as walkdown2, inbox-based
/// coloring.
template <class Exec>
WalkDown2Trace walkdown2_erew(Exec& exec, const list::LinkedList& list,
                              const Layout2D& lay,
                              const std::vector<index_t>& pred,
                              ErewWalkState& st,
                              std::vector<std::uint8_t>& color) {
  const std::size_t n = list.size();
  const auto& next = list.next_array();
  WalkDown2Trace trace;
  trace.handled_at = pram::scratch<index_t>(exec, n, knil);
  const std::size_t total_steps = lay.rows == 0 ? 0 : 2 * lay.rows - 1;
  trace.steps = total_steps;

  auto count_h = pram::scratch<index_t>(exec, lay.cols);
  auto index_h = pram::scratch<index_t>(exec, lay.cols);
  std::vector<index_t>& count = *count_h;
  std::vector<index_t>& index = *index_h;
  exec.step(lay.cols, [&](std::size_t j, auto&& m) {
    m.wr(count, j, index_t{0});
    m.wr(index, j, index_t{0});
  });

  for (std::size_t k = 0; k < total_steps; ++k) {
    exec.step(lay.cols, [&](std::size_t j, auto&& m) {
      const index_t idx = m.rd(index, j);
      if (idx >= lay.rows) return;
      const index_t v = m.rd(lay.cell_node, j * lay.rows + idx);
      if (v == knil) {
        m.wr(index, j, static_cast<index_t>(idx + 1));
        return;
      }
      const index_t cnt = m.rd(count, j);
      const index_t key = m.rd(lay.node_key, static_cast<std::size_t>(v));
      if (key != cnt) {
        m.wr(count, j, static_cast<index_t>(cnt + 1));
        return;
      }
      m.wr(trace.handled_at, static_cast<std::size_t>(v),
           static_cast<index_t>(k));
      const index_t s = m.rd(next, static_cast<std::size_t>(v));
      if (s != knil &&
          m.rd(lay.node_row, static_cast<std::size_t>(v)) ==
              m.rd(st.row_next, static_cast<std::size_t>(v))) {
        detail::erew_color_and_push(m, pred, st, color, v, s);
      }
      m.wr(index, j, static_cast<index_t>(idx + 1));
    });
  }
  return trace;
}

}  // namespace llmp::core
