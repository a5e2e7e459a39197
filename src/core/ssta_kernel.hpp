/// \file ssta_kernel.hpp
/// The per-gate kernel of block-based SSTA (the paper's baseline, Sec. 2.1):
/// rise and fall arrival distributions are kept separate and propagated per
/// gate with Clark's MAX or MIN, chosen from the gate's logic and the input
/// transition direction. It reads only the compiled plan (fanins, gate
/// types, delays), so the batch engine (`ssta::run_ssta`) and the
/// incremental engine (`core::IncrementalSpsta::ssta`) share one kernel and
/// one full-pass loop.

#pragma once

#include <span>

#include "netlist/gate_type.hpp"
#include "netlist/netlist.hpp"
#include "stats/gaussian.hpp"

namespace spsta::core {

class CompiledDesign;

/// Rise/fall arrival distributions of one net.
struct NodeArrival {
  stats::Gaussian rise;
  stats::Gaussian fall;
};

/// Which order statistic a gate applies to the contributing input arrivals
/// for a given output transition direction.
enum class ArrivalOp { Max, Min };

/// The input transition direction that causes the given output direction
/// (true = the gate inverts, so an output rise is caused by input falls).
[[nodiscard]] bool inputs_inverted(netlist::GateType type) noexcept;

/// MAX or MIN for the given gate and output transition direction
/// (output_rising = true for the rising output arrival).
[[nodiscard]] ArrivalOp arrival_op(netlist::GateType type, bool output_rising) noexcept;

/// Recomputes one combinational gate's arrival from \p state, adding the
/// plan's (per-direction) delays. Precondition: plan.combinational(id).
[[nodiscard]] NodeArrival propagate_gate_arrival(const CompiledDesign& plan,
                                                 netlist::NodeId id,
                                                 std::span<const NodeArrival> state);

/// The full pass: evaluates every combinational node of \p plan in level
/// order over \p arrival, whose source entries the caller has seeded.
void propagate_all_arrivals(const CompiledDesign& plan, std::span<NodeArrival> arrival);

}  // namespace spsta::core
