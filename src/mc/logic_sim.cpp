#include "mc/logic_sim.hpp"

#include <stdexcept>

namespace spsta::mc {

using netlist::FourValue;
using netlist::GateType;
using netlist::NodeId;

SimValue eval_gate_timed(GateType type, std::span<const SimValue> inputs,
                         SimRunStats* stats, std::size_t* raw_changes) {
  constexpr std::size_t kMaxFanin = 64;
  if (inputs.size() > kMaxFanin) {
    throw std::invalid_argument("eval_gate_timed: fanin too large");
  }

  bool bits[kMaxFanin];
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    bits[i] = netlist::initial_value(inputs[i].value);
  }
  const bool out_initial = netlist::eval_gate(type, std::span<const bool>(bits, inputs.size()));

  // Order the switching inputs by time; then sweep, flipping one bit per
  // event and tracking the output's last change. Equal times keep input
  // order (an insertion sort, stable by construction): the raw change
  // count depends on the order of simultaneous events, so it must not be
  // left to an unspecified std::sort tie order.
  struct Event {
    double time;
    std::size_t index;
  };
  Event events[kMaxFanin];
  std::size_t num_events = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const FourValue v = inputs[i].value;
    if (v == FourValue::Rise || v == FourValue::Fall) {
      const Event ev{inputs[i].time, i};
      std::size_t at = num_events++;
      for (; at > 0 && ev.time < events[at - 1].time; --at) events[at] = events[at - 1];
      events[at] = ev;
    }
  }

  bool out_prev = out_initial;
  double last_change = 0.0;
  std::size_t changes = 0;
  for (std::size_t e = 0; e < num_events; ++e) {
    bits[events[e].index] = !bits[events[e].index];
    const bool out_now =
        netlist::eval_gate(type, std::span<const bool>(bits, inputs.size()));
    if (out_now != out_prev) {
      out_prev = out_now;
      last_change = events[e].time;
      ++changes;
    }
  }
  const bool out_final = out_prev;
  if (raw_changes) *raw_changes = changes;

  SimValue out;
  out.value = netlist::from_initial_final(out_initial, out_final);
  if (out_initial != out_final) {
    out.time = last_change;
    if (stats && changes > 1) {
      ++stats->glitching_gates;
      stats->filtered_changes += changes - 1;
    }
  } else if (changes > 0) {
    // Pure pulse: filtered to a constant (the paper does not count glitches).
    if (stats) {
      ++stats->glitching_gates;
      stats->filtered_changes += changes;
    }
  }
  return out;
}

std::vector<SimValue> simulate_once(const netlist::Netlist& design,
                                    const netlist::Levelization& levels,
                                    std::span<const SimValue> source_values,
                                    std::span<const double> gate_delays,
                                    SimRunStats* stats,
                                    std::vector<std::uint32_t>* raw_changes) {
  return simulate_once(design, levels, source_values, gate_delays, gate_delays,
                       stats, raw_changes);
}

std::vector<SimValue> simulate_once(const netlist::Netlist& design,
                                    const netlist::Levelization& levels,
                                    std::span<const SimValue> source_values,
                                    std::span<const double> rise_delays,
                                    std::span<const double> fall_delays,
                                    SimRunStats* stats,
                                    std::vector<std::uint32_t>* raw_changes) {
  const std::vector<NodeId> sources = design.timing_sources();
  if (source_values.size() != sources.size()) {
    throw std::invalid_argument("simulate_once: source value count mismatch");
  }
  if (rise_delays.size() != design.node_count() ||
      fall_delays.size() != design.node_count()) {
    throw std::invalid_argument("simulate_once: delay count mismatch");
  }

  std::vector<SimValue> value(design.node_count());
  for (std::size_t i = 0; i < sources.size(); ++i) value[sources[i]] = source_values[i];
  if (raw_changes) {
    raw_changes->assign(design.node_count(), 0);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const FourValue v = source_values[i].value;
      (*raw_changes)[sources[i]] = (v == FourValue::Rise || v == FourValue::Fall) ? 1 : 0;
    }
  }

  std::vector<SimValue> ins;
  for (NodeId id : levels.order) {
    const netlist::Node& node = design.node(id);
    if (!netlist::is_combinational(node.type)) continue;
    ins.clear();
    for (NodeId f : node.fanins) ins.push_back(value[f]);
    std::size_t changes = 0;
    SimValue out = eval_gate_timed(node.type, ins, stats, raw_changes ? &changes : nullptr);
    if (raw_changes) (*raw_changes)[id] = static_cast<std::uint32_t>(changes);
    if (out.value == FourValue::Rise) {
      out.time += rise_delays[id];
    } else if (out.value == FourValue::Fall) {
      out.time += fall_delays[id];
    }
    value[id] = out;
  }
  return value;
}

}  // namespace spsta::mc
