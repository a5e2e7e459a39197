/// \file spsta.hpp
/// The paper's contribution: Signal Probability based Statistical Timing
/// Analysis. Two interchangeable back-ends over the same WEIGHTED SUM
/// recursion (Eq. 8/11):
///
///  * run_spsta_moment  — each transition t.o.p. is (mass, mean, var);
///    in-scenario MAX/MIN uses Clark moment matching and the weighted sum
///    collapses a Gaussian mixture to matched moments (paper Sec. 3.4).
///  * run_spsta_numeric — each t.o.p. is a piecewise-linear density;
///    MAX/MIN are CDF products and the weighted sum is linear, recovering
///    full non-Gaussian t.o.p. shapes (paper Fig. 4).
///
/// Both produce, per net: four-value probabilities (P0, P1, Pr, Pf) and
/// rise/fall transition temporal-occurrence-probability functions whose
/// masses are the transition probabilities — i.e. timing *and* toggling
/// information at once (paper Sec. 3.1).

#pragma once

#include <span>
#include <vector>

#include "netlist/delay_model.hpp"
#include "netlist/four_value.hpp"
#include "netlist/netlist.hpp"
#include "stats/gaussian.hpp"
#include "stats/piecewise.hpp"

namespace spsta::core {

class CompiledDesign;

/// Moment-form t.o.p. of one transition direction: occurrence probability
/// plus the conditional arrival-time moments.
struct TransitionTop {
  double mass = 0.0;
  stats::Gaussian arrival;
  /// Third central moment of the conditional arrival. In-scenario MAX/MIN
  /// results are treated as Gaussian (zero third moment); the mixture
  /// across scenarios contributes the dominant skew term exactly, so this
  /// tracks the shape asymmetry moment matching usually discards.
  double third_central = 0.0;

  /// Standardized skewness (0 when degenerate).
  [[nodiscard]] double skewness() const noexcept;
};

/// Moment-engine result for one net.
struct NodeTop {
  netlist::FourValueProbs probs;
  TransitionTop rise;
  TransitionTop fall;
};

/// Moment-engine result.
struct SpstaResult {
  std::vector<NodeTop> node;
};

/// Numeric-engine result for one net: densities integrate to Pr / Pf.
struct NodeTopDensity {
  netlist::FourValueProbs probs;
  stats::PiecewiseDensity rise;
  stats::PiecewiseDensity fall;
};

/// Numeric-engine result.
struct SpstaNumericResult {
  std::vector<NodeTopDensity> node;
  stats::GridSpec grid;
};

/// Engine options.
struct SpstaOptions {
  /// Numeric engine: grid step (time units; the paper's unit is one gate
  /// delay).
  double grid_dt = 0.05;
  /// Numeric engine: grid padding beyond the structural delay span, in
  /// source-arrival standard deviations.
  double grid_pad_sigma = 8.0;
  /// Hard cap on numeric grid points (clamped to >= 2; a degenerate
  /// [lo, lo] span is widened so the grid step stays positive).
  std::size_t max_grid_points = 4096;
  /// Worker threads for level-parallel gate evaluation (0 = all hardware
  /// threads). Nodes within one levelization level are independent, so
  /// results are bit-identical at any thread count. Each run starts and
  /// joins its own pool; at 1 it starts no thread.
  unsigned threads = 1;
};

// NOTE: the run_* functions below are implementation-level entry points.
// Application code should go through the Analyzer facade (spsta_api.hpp),
// which owns a CompiledDesign, validates requests against the selected
// engine, and amortizes structural work across runs.

/// Runs the moment engine on a precompiled plan — the warm path that skips
/// all structural work. \p source_stats follows plan.timing_sources()
/// order (single element broadcasts). Switch patterns come from the
/// process-wide template table (patterns.hpp), so repeated gate signatures
/// skip enumeration; results are bit-identical either way.
[[nodiscard]] SpstaResult run_spsta_moment(
    const CompiledDesign& plan, std::span<const netlist::SourceStats> source_stats,
    const SpstaOptions& options = {});

/// Runs the moment-based engine. \p source_stats follows
/// design.timing_sources() order (single element broadcasts). Thin
/// compile-then-run wrapper over the CompiledDesign overload.
[[nodiscard]] SpstaResult run_spsta_moment(
    const netlist::Netlist& design, const netlist::DelayModel& delays,
    std::span<const netlist::SourceStats> source_stats);

/// Moment engine with explicit options (threads; the grid
/// fields are ignored — the Analyzer facade rejects requests that set
/// them for this engine). The no-options overload uses defaults.
[[nodiscard]] SpstaResult run_spsta_moment(
    const netlist::Netlist& design, const netlist::DelayModel& delays,
    std::span<const netlist::SourceStats> source_stats, const SpstaOptions& options);

/// Recomputes one combinational gate's four-value probabilities and
/// rise/fall tops from the current state, adding \p rise_delay /
/// \p fall_delay — the single-node kernel shared by the batch and
/// incremental moment engines. The delays are arguments, not read from
/// the plan, so a caller can evaluate under edits it has not written
/// (IncrementalSpsta's probe).
[[nodiscard]] NodeTop propagate_node_top(const CompiledDesign& plan, netlist::NodeId id,
                                         std::span<const NodeTop> state,
                                         const stats::Gaussian& rise_delay,
                                         const stats::Gaussian& fall_delay);

/// Runs the numeric engine on a precompiled plan: the grid comes from the
/// plan's structural delay span (bit-identical to the legacy per-run
/// scan) and no levelization or adjacency is rebuilt.
[[nodiscard]] SpstaNumericResult run_spsta_numeric(
    const CompiledDesign& plan, std::span<const netlist::SourceStats> source_stats,
    const SpstaOptions& options = {});

/// Runs the numeric (piecewise-density) engine. Thin compile-then-run
/// wrapper over the CompiledDesign overload.
[[nodiscard]] SpstaNumericResult run_spsta_numeric(
    const netlist::Netlist& design, const netlist::DelayModel& delays,
    std::span<const netlist::SourceStats> source_stats,
    const SpstaOptions& options = {});

}  // namespace spsta::core
