/// \file monte_carlo.hpp
/// The Monte Carlo driver of the paper's experiment: N independent runs of
/// the four-value logic-timing simulator, with per-node accumulation of
/// value-occurrence counts and rise/fall arrival-time moments. This is the
/// ground truth SPSTA and SSTA are compared against (Tables 2-3).

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netlist/delay_model.hpp"
#include "netlist/four_value.hpp"
#include "netlist/netlist.hpp"
#include "stats/histogram.hpp"
#include "stats/welford.hpp"

namespace spsta::core {
class CompiledDesign;
}

namespace spsta::mc {

/// Monte Carlo configuration.
struct MonteCarloConfig {
  std::uint64_t runs = 10000;  ///< the paper uses 10K
  std::uint64_t seed = 1;
  /// Worker threads sharding the runs (0 = all hardware threads). Each
  /// run draws from its own RNG stream seeded by (seed, run index) and
  /// runs are accumulated chunk-by-chunk in a layout that depends only on
  /// `runs`, so results are bit-identical at any thread count. Each run
  /// starts and joins its own pool; at 1 it starts no thread.
  unsigned threads = 1;
  /// Optional node whose rise-arrival samples are histogrammed (Fig. 1).
  std::optional<netlist::NodeId> histogram_node;
  double histogram_lo = -5.0;
  double histogram_hi = 25.0;
  std::size_t histogram_bins = 120;
  /// Track the per-run maximum arrival over all timing endpoints (either
  /// direction) — the circuit-level delay sample behind timing yield.
  bool track_circuit_max = false;
};

/// Accumulated per-node estimates.
struct NodeEstimate {
  std::uint64_t count[4] = {0, 0, 0, 0};  ///< indexed by FourValue
  /// Pre-glitch-filter output edge count over all runs — the quantity
  /// transition-density power estimation predicts.
  std::uint64_t raw_edges = 0;
  stats::RunningMoments rise_time;
  stats::RunningMoments fall_time;

  /// Empirical four-value probabilities. With zero observed samples the
  /// estimate is the uninformative uniform {0.25, 0.25, 0.25, 0.25} — NOT
  /// a confident "P0 = 1" — so accuracy comparisons against analytic
  /// engines never score phantom agreement on never-simulated nodes.
  [[nodiscard]] netlist::FourValueProbs probs() const noexcept;
  /// P(value == Rise) over runs.
  [[nodiscard]] double rise_probability() const noexcept;
  [[nodiscard]] double fall_probability() const noexcept;
  /// Expected pre-filter edges per cycle.
  [[nodiscard]] double raw_edge_rate() const noexcept;
};

/// Full Monte Carlo result.
struct MonteCarloResult {
  std::vector<NodeEstimate> node;
  std::uint64_t runs = 0;
  /// Total glitch-filtered gates over all runs.
  std::uint64_t glitching_gates = 0;
  std::optional<stats::Histogram> histogram;

  /// Populated when config.track_circuit_max is set: moments of the
  /// per-run latest endpoint arrival, counted only over runs where some
  /// endpoint transitioned, plus the quiet-run count and the raw samples
  /// (sorted) for exact empirical yield queries.
  stats::RunningMoments circuit_max;
  std::uint64_t quiet_runs = 0;
  std::vector<double> circuit_max_samples;

  /// Empirical timing yield: fraction of runs whose latest endpoint
  /// arrival is <= \p period (quiet runs always meet timing). Requires
  /// track_circuit_max.
  [[nodiscard]] double empirical_yield(double period) const;
};

/// Monte Carlo over a precompiled plan (implementation-level; application
/// code goes through the Analyzer facade in spsta_api.hpp): reuses the
/// plan's levelization and source/endpoint lists. Sampling depends only on
/// (seed, run index), so results are bit-identical to the legacy overload.
[[nodiscard]] MonteCarloResult run_monte_carlo(
    const core::CompiledDesign& plan,
    std::span<const netlist::SourceStats> source_stats, const MonteCarloConfig& config);

/// Runs the Monte Carlo experiment: per run, each timing source draws a
/// four-value from its probabilities and (for r/f) an arrival time from
/// its rise/fall distribution; per-gate delays with nonzero variance are
/// re-sampled each run. \p source_stats follows design.timing_sources()
/// order (single element broadcasts). Thin compile-then-run wrapper.
[[nodiscard]] MonteCarloResult run_monte_carlo(
    const netlist::Netlist& design, const netlist::DelayModel& delays,
    std::span<const netlist::SourceStats> source_stats, const MonteCarloConfig& config);

}  // namespace spsta::mc
