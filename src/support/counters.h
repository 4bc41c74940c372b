// Named counter tables: the one place a stats struct's counters are listed.
//
// A stats struct (serve::ServiceStats, net::ServerStats, net::TenantStats)
// is paired with one constexpr table of {name, member pointer} rows:
//
//   struct ServerStats { std::uint64_t accepted = 0; ... };
//   inline constexpr support::CounterTable<ServerStats, 10> kServerCounters{{
//       {"accepted", &ServerStats::accepted},
//       ...
//   }};
//
// Everything that would otherwise spell the counters out by hand loops
// over the table instead: the live relaxed atomics (CounterCells), the
// snapshot and the reset below, the wire codec (net/wire.h) and the
// llmp_serve CSV and metric table, whose column labels are the row names.
// Adding a counter takes one struct field, one table row and one
// increment.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <tuple>
#include <type_traits>

namespace llmp::support {

/// One row: the counter's exported name and the stats-struct field
/// holding its value.
template <class Stats>
struct Counter {
  std::string_view name;
  std::uint64_t Stats::*field;
};

template <class Stats, std::size_t N>
using CounterTable = std::array<Counter<Stats>, N>;

/// Row of `field` in `table`, at compile time; naming a field the table
/// does not list is a compile error.
template <class Stats, std::size_t N>
consteval std::size_t row_of(const CounterTable<Stats, N>& table,
                             std::uint64_t Stats::*field) {
  for (std::size_t i = 0; i < N; ++i)
    if (table[i].field == field) return i;
  throw "field is not a row of this counter table";
}

/// The live side of a counter table: one relaxed atomic per row. Each
/// cell is an independent monotonic tally, and load_into() is a
/// monitoring snapshot that promises no cross-counter consistency. No
/// reader orders other memory against these cells, so there is no
/// invariant a stronger order would protect.
template <const auto& Table>
class CounterCells {
 public:
  /// Add `n` to the cell of `Field` (a member pointer listed in Table).
  template <auto Field>
  void add(std::uint64_t n = 1) {
    cells_[row_of(Table, Field)].fetch_add(n, std::memory_order_relaxed);
  }

  /// Copy every cell into its stats-struct field.
  template <class Stats>
  void load_into(Stats& out) const {
    for (std::size_t i = 0; i < kRows; ++i)
      out.*Table[i].field = cells_[i].load(std::memory_order_relaxed);
  }

  void reset() {
    for (auto& c : cells_) c.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kRows =
      std::tuple_size_v<std::remove_cvref_t<decltype(Table)>>;
  std::array<std::atomic<std::uint64_t>, kRows> cells_{};
};

}  // namespace llmp::support
