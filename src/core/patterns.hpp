/// \file patterns.hpp
/// Input-switching scenario enumeration behind the WEIGHTED SUM operation
/// (paper Eq. 8/11/12): for a k-input gate, every subset of switching
/// inputs that produces an output transition contributes one weighted term
/// whose arrival distribution is the MAX (or MIN) over the subset.
///
/// Enumeration is exact over the joint input assignments (independence
/// assumed) but walks only the *support* — per-input four-values with
/// nonzero probability — and collapses assignments sharing the same
/// switching set and directions, so each distinct (subset, directions)
/// pair appears once with its total probability weight — the O(2^k) form
/// the paper quotes. A 12-input gate whose inputs are static (or have any
/// pruned four-values) enumerates in milliseconds instead of walking all
/// 4^12 codes.
///
/// The scenario *structure* — which patterns exist, in which order, and
/// which pattern each joint assignment lands in — depends only on the
/// gate's support signature: its type plus, per input, which four-values
/// have nonzero probability. A process-wide table memoizes that structure
/// per signature as a template; the weights are replayed from it on every
/// call, hit or miss, with the same products in the same order as the
/// direct walk, so results are bitwise independent of the table's state.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/four_value.hpp"
#include "netlist/netlist.hpp"

namespace spsta::core {

/// Which order statistic the settled output transition time takes over
/// the switching inputs of one scenario.
enum class SettleOp : std::uint8_t { Max, Min };

/// One weighted switching scenario of a gate.
struct SwitchPattern {
  /// Total probability of the scenario (over all compatible static values
  /// of the non-switching inputs).
  double weight = 0.0;
  /// Direction of the resulting output transition.
  bool output_rising = false;
  /// Settled-time operation over the switching inputs.
  SettleOp op = SettleOp::Max;
  /// Bit i set: input i switches in this scenario.
  std::uint32_t switching_mask = 0;
  /// Bit i set: input i rises (valid only where switching_mask has bit i).
  std::uint32_t rising_mask = 0;
};

/// Enumerates all output-transition scenarios of \p type under the given
/// independent input four-value probabilities into \p out (overwritten;
/// its capacity is reused, so a caller-owned scratch vector makes
/// steady-state calls allocation-free). Patterns come in ascending
/// (switching_mask, rising_mask, output_rising) order. A scenario appears
/// iff some joint assignment of the inputs' nonzero-probability values
/// produces it, so its weight is positive unless the product of tiny
/// probabilities underflows to 0.0 — such zero-weight patterns are kept.
/// Const0/Const1 gates and inputs with an all-zero distribution yield no
/// patterns. Throws std::invalid_argument for more than 16 inputs, or when
/// the joint nonzero-probability support exceeds 2^26 assignments (a dense
/// fanin-14+ gate) — previously such gates silently iterated for minutes.
///
/// Invariants (tested):
///   sum of weights over rising scenarios  == gate_four_value(...).pr
///   sum of weights over falling scenarios == gate_four_value(...).pf
void enumerate_switch_patterns(netlist::GateType type,
                               std::span<const netlist::FourValueProbs> inputs,
                               std::vector<SwitchPattern>& out);

/// Convenience overload returning a fresh vector.
[[nodiscard]] std::vector<SwitchPattern> enumerate_switch_patterns(
    netlist::GateType type, std::span<const netlist::FourValueProbs> inputs);

/// Byte budget of the process-wide template table: 200 never-seen
/// 5000-gate generated designs fill 2574 templates in 0.8 MB, so 32 MiB is
/// about 40x what real designs need while still bounding a long-running
/// process fed arbitrary wide gates. Templates built past the budget are
/// replayed and discarded.
inline constexpr std::size_t kPatternTableBudgetBytes = std::size_t{32} << 20;

/// Occupancy and traffic of the template table since process start.
struct PatternTableStats {
  std::size_t entries = 0;     ///< stored templates
  std::size_t bytes = 0;       ///< estimated heap bytes of stored templates (<= budget)
  std::uint64_t hits = 0;      ///< lookups that found a stored template
  std::uint64_t misses = 0;    ///< lookups that built a template
  std::uint64_t unstored = 0;  ///< misses not stored because the budget was full
};

[[nodiscard]] PatternTableStats pattern_table_stats();

}  // namespace spsta::core
