/// \file ssta.hpp
/// Block-based statistical static timing analysis — the baseline the paper
/// compares against (Sec. 2.1 and the comparator implemented in Sec. 4):
/// rise and fall arrival-time distributions are kept separate and
/// propagated per gate with either Clark's MAX or MIN moment matching,
/// chosen from the gate's logic and the input transition direction
/// (e.g. AND: output rise = MAX of input rises, output fall = MIN of
/// input falls; inverting gates swap the input direction).
///
/// This analysis is input-statistics-oblivious: it assumes a transition
/// always occurs on every net — the very pessimism SPSTA removes.

#pragma once

#include <span>
#include <vector>

#include "core/ssta_kernel.hpp"
#include "netlist/delay_model.hpp"
#include "netlist/four_value.hpp"
#include "netlist/netlist.hpp"

namespace spsta::core {
class CompiledDesign;
}

namespace spsta::ssta {

// The per-gate kernel lives in core (core/ssta_kernel.hpp), below this
// layer, so the incremental engine shares it with run_ssta.
using core::arrival_op;
using core::ArrivalOp;
using core::inputs_inverted;
using core::NodeArrival;
using core::propagate_gate_arrival;

/// Full SSTA result: arrival distributions per node id.
struct SstaResult {
  std::vector<NodeArrival> arrival;
};

/// Runs block-based SSTA on a precompiled plan (implementation-level;
/// application code goes through the Analyzer facade in spsta_api.hpp).
/// Reuses the plan's levelization and cached source list; results are
/// bit-identical to the legacy overload.
[[nodiscard]] SstaResult run_ssta(const core::CompiledDesign& plan,
                                  std::span<const netlist::SourceStats> source_stats);

/// Runs block-based SSTA over \p design. Source arrivals come from
/// \p source_stats (rise_arrival / fall_arrival; the four-value
/// probabilities are deliberately ignored — SSTA is input-oblivious).
/// A single-element span broadcasts. Thin compile-then-run wrapper.
[[nodiscard]] SstaResult run_ssta(const netlist::Netlist& design,
                                  const netlist::DelayModel& delays,
                                  std::span<const netlist::SourceStats> source_stats);

}  // namespace spsta::ssta
