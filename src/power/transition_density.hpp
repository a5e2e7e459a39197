/// \file transition_density.hpp
/// Najm's transition-density propagation (paper Sec. 2.2.2, Eq. 6/7):
///   rho(y) = sum_i P(dy/dx_i) * rho(x_i)
/// where dy/dx_i is the Boolean difference enabling a propagation path
/// from input i to the output. Boolean-difference probabilities come
/// either from the independent closed forms or exactly from BDDs.

#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace spsta::power {

/// How the per-gate Boolean-difference probabilities are computed.
enum class DensityMethod {
  /// Independent-input closed forms per gate, probabilities from the
  /// topological signal-probability pass (fast, approximate).
  Independent,
  /// Global BDDs: P(df/dx) evaluated on each net's full Boolean function,
  /// capturing reconvergence (slower, exact for tree-correlations).
  ExactBdd,
};

/// Per-node transition densities (expected toggles per cycle).
struct TransitionDensities {
  std::vector<double> density;
  std::vector<double> signal_probability;
};

/// Propagates transition densities through \p design. \p source_probs and
/// \p source_densities follow design.timing_sources() order (single
/// elements broadcast).
[[nodiscard]] TransitionDensities propagate_transition_density(
    const netlist::Netlist& design, std::span<const double> source_probs,
    std::span<const double> source_densities,
    DensityMethod method = DensityMethod::Independent);

/// Dynamic-power figure: 0.5 * Vdd^2 * f_clk * sum(C_node * density_node),
/// with a uniform per-node capacitance. Returns watts when inputs are in
/// SI units.
[[nodiscard]] double dynamic_power(const TransitionDensities& densities,
                                   double vdd, double clock_hz,
                                   double capacitance_per_node);

}  // namespace spsta::power
