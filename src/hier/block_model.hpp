/// \file block_model.hpp
/// Block timing-model extraction (DESIGN.md §14): the compact per-port
/// abstraction a hierarchical analysis passes between blocks instead of
/// flattening, after "Timing Model Extraction for Sequential Circuits
/// Considering Process Variations" (Li/Chen/Schlichtmann — see PAPERS.md).
///
/// A BlockTimingModel is one engine run over a block's CompiledDesign,
/// keeping only the primary-output boundary state: four-value signal
/// probabilities plus rise/fall transition t.o.p. summaries (mass, mean,
/// variance). Numeric-engine runs are summarized to the same moment form
/// at the boundary (mass/mean/variance of the piecewise density).
///
/// Accuracy contract vs flat analysis (asserted by tests/hier_model_test):
///  * Signal probabilities and transition masses compose EXACTLY: block
///    output probabilities depend only on block input probabilities, and
///    the boundary hand-off is the same (probs, mass=pr/pf) seeding a flat
///    source performs. Differences are limited to the one normalized()
///    renormalization at each boundary — within kProbEps.
///  * Moment-engine arrival mean/variance also compose exactly in the
///    mathematical sense: the engine's source seeding carries precisely
///    (mass, mean, var), which is what the model keeps. Differences are
///    floating-point only (reassociation + the mean-shift reuse below) —
///    within kMomentRelEps relative.
///  * Third central moments are NOT carried across boundaries (the flat
///    moment engine seeds sources with zero third moment and never feeds
///    it back into downstream mean/var, so only reported skewness at
///    block-internal depth is affected, not composed mean/var).
///  * Numeric-engine compositions Gaussianize each boundary (density ->
///    moment summary -> Gaussian source). This is a real approximation;
///    the declared bound on composed-vs-flat endpoint mean/stddev is
///    kNumericAbsEps in the analysis' time unit (one mean gate delay).
///
/// Models are reusable across arrival shifts: extraction normalizes input
/// arrival means by their minimum (base shift), so a block fed the same
/// relative arrival pattern at a different absolute time hits the same
/// model — MAX/MIN and weighted sums commute with a common time shift.
/// Blocks containing DFFs opt out (DFF sources carry absolute stats).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/compiled_design.hpp"
#include "core/spsta.hpp"
#include "netlist/four_value.hpp"
#include "spsta_api.hpp"

namespace spsta::hier {

/// Boundary state of one port: what crosses a block interface — a net's
/// moment-engine state.
using PortTop = core::NodeTop;

/// Declared composed-vs-flat tolerance on signal probabilities and
/// transition masses (renormalization rounding only).
inline constexpr double kProbEps = 1e-12;
/// Declared relative tolerance on moment-engine composed arrival mean /
/// stddev (floating-point reassociation only).
inline constexpr double kMomentRelEps = 1e-9;
/// Declared absolute tolerance on numeric-engine composed endpoint arrival
/// mean / stddev, in time units (boundary Gaussianization error).
inline constexpr double kNumericAbsEps = 0.1;

/// Compact port-to-port timing abstraction of one analyzed block
/// configuration (block x engine x options x normalized input stats).
struct BlockTimingModel {
  std::uint64_t signature = 0;  ///< the cache key this model was built under
  /// Boundary state per block primary output, in primary_outputs() order.
  /// Arrival means are relative to the extraction's base shift; apply()
  /// adds the instance's own shift back.
  std::vector<PortTop> outputs;

  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return sizeof(BlockTimingModel) + outputs.size() * sizeof(PortTop);
  }
};

/// The exact-match model cache key: block content hash, engine, the
/// engine's grid options (numeric only), and the bit patterns of every
/// normalized source statistic. Bitwise matching keeps a cache hit
/// bit-identical to re-extraction.
[[nodiscard]] std::uint64_t model_signature(
    std::uint64_t block_hash, Engine engine, const core::SpstaOptions& options,
    std::span<const netlist::SourceStats> normalized_sources) noexcept;

/// Extracts a block model: one engine run (moment or numeric) over the
/// compiled block plan with the given per-source stats. \p engine must be
/// Engine::SpstaMoment or Engine::SpstaNumeric; anything else throws
/// std::invalid_argument.
[[nodiscard]] BlockTimingModel extract_block_model(
    const core::CompiledDesign& plan, Engine engine,
    std::span<const netlist::SourceStats> sources, const core::SpstaOptions& options);

}  // namespace spsta::hier
