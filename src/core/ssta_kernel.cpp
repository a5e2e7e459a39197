#include "core/ssta_kernel.hpp"

#include "core/compiled_design.hpp"

namespace spsta::core {

using netlist::GateType;
using netlist::NodeId;
using stats::Gaussian;

bool inputs_inverted(GateType type) noexcept { return netlist::is_inverting(type); }

ArrivalOp arrival_op(GateType type, bool output_rising) noexcept {
  switch (type) {
    case GateType::And:
    case GateType::Nand:
      // Output 1 is AND's non-controlled value: the last input to reach the
      // non-controlling value sets it -> MAX. Output 0 is controlled: the
      // first input to reach the controlling value sets it -> MIN. For
      // NAND the output inverts but the input-side semantics are AND's.
      {
        const bool output_non_controlled =
            (type == GateType::And) ? output_rising : !output_rising;
        return output_non_controlled ? ArrivalOp::Max : ArrivalOp::Min;
      }
    case GateType::Or:
    case GateType::Nor: {
      const bool output_controlled =
          (type == GateType::Or) ? output_rising : !output_rising;
      return output_controlled ? ArrivalOp::Min : ArrivalOp::Max;
    }
    default:
      // Single-input gates and parity gates: worst case (MAX), the STA
      // convention for gates without a controlling value.
      return ArrivalOp::Max;
  }
}

NodeArrival propagate_gate_arrival(const CompiledDesign& plan, NodeId id,
                                   std::span<const NodeArrival> state) {
  const std::span<const NodeId> fanins = plan.fanins(id);
  if (fanins.empty()) {  // constants never transition
    return {{0.0, 0.0}, {0.0, 0.0}};
  }
  const GateType type = plan.type(id);
  const bool inverted = inputs_inverted(type);
  NodeArrival out;
  for (const bool output_rising : {true, false}) {
    const ArrivalOp op = arrival_op(type, output_rising);
    // Contributing input arrivals: rises cause output rises for
    // non-inverting gates, falls for inverting ones. Parity gates use
    // the worse of both input directions per input.
    Gaussian acc;
    bool first = true;
    for (NodeId f : fanins) {
      const NodeArrival& in = state[f];
      Gaussian contrib;
      if (type == GateType::Xor || type == GateType::Xnor) {
        contrib = stats::clark_max(in.rise, in.fall).moments;
      } else {
        const bool take_rise = output_rising != inverted;
        contrib = take_rise ? in.rise : in.fall;
      }
      if (first) {
        acc = contrib;
        first = false;
      } else {
        acc = (op == ArrivalOp::Max) ? stats::clark_max(acc, contrib).moments
                                     : stats::clark_min(acc, contrib).moments;
      }
    }
    (output_rising ? out.rise : out.fall) =
        stats::sum(acc, plan.delays().delay(id, output_rising));
  }
  return out;
}

void propagate_all_arrivals(const CompiledDesign& plan, std::span<NodeArrival> arrival) {
  for (NodeId id : plan.levelization().order) {
    if (!plan.combinational(id)) continue;
    arrival[id] = propagate_gate_arrival(plan, id, arrival);
  }
}

}  // namespace spsta::core
