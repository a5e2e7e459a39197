/// \file spsta_canonical.hpp
/// Correlation-aware SPSTA: the paper's Sec. 3.4 moment-and-correlation
/// programme realized with first-order canonical forms.
///
/// The paper's experimental engine ignores signal correlations (its
/// observation 5 names them as the residual error source). Here every
/// conditional arrival time is a canonical form over one N(0,1) parameter
/// per (timing source, transition direction):
///
///   arrival = nominal + sum_i s_i * dX_i + resid * dR
///
/// so two reconvergent fanins that both depend on the same source arrival
/// carry that dependence explicitly, and the in-scenario MAX/MIN (Clark
/// with the *known* covariance) no longer double-counts their variance.
/// The WEIGHTED SUM blends scenario forms by probability weight and pushes
/// the cross-scenario spread into the residual (law of total variance).

#pragma once

#include <span>
#include <vector>

#include "netlist/delay_model.hpp"
#include "netlist/four_value.hpp"
#include "netlist/netlist.hpp"
#include "variational/canonical.hpp"

namespace spsta::core {

class CompiledDesign;

/// t.o.p. in canonical form: occurrence probability plus the conditional
/// arrival as a canonical form over the source-arrival parameters.
struct CanonicalTop {
  double mass = 0.0;
  variational::CanonicalForm arrival;
};

/// Per-net result.
struct NodeCanonicalTop {
  netlist::FourValueProbs probs;
  CanonicalTop rise;
  CanonicalTop fall;
};

/// Full result. Parameter 2*i is source i's rise arrival, 2*i+1 its fall
/// arrival (unit-variance normalized).
struct SpstaCanonicalResult {
  std::vector<NodeCanonicalTop> node;
  std::size_t num_params = 0;

  /// Correlation of two nets' conditional arrivals in the given
  /// directions, from shared source-arrival sensitivities.
  [[nodiscard]] double arrival_correlation(netlist::NodeId a, bool a_rising,
                                           netlist::NodeId b, bool b_rising) const;
};

/// Runs the canonical-form engine on a precompiled plan (implementation-
/// level; application code goes through the Analyzer facade in
/// spsta_api.hpp). Warm runs reuse the plan's levelization; results are
/// bit-identical to the legacy overload.
[[nodiscard]] SpstaCanonicalResult run_spsta_canonical(
    const CompiledDesign& plan, std::span<const netlist::SourceStats> source_stats);

/// Runs the canonical-form SPSTA engine (source stats as elsewhere;
/// single-element spans broadcast). Gate-delay variance is local and goes
/// to the residual term. Thin compile-then-run wrapper.
[[nodiscard]] SpstaCanonicalResult run_spsta_canonical(
    const netlist::Netlist& design, const netlist::DelayModel& delays,
    std::span<const netlist::SourceStats> source_stats);

}  // namespace spsta::core
