// Tests for the four-value logic-timing simulator: Table 1 value rules
// plus the MIN/MAX settled-time semantics and glitch filtering.

#include "mc/logic_sim.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "netlist/iscas89.hpp"

namespace spsta::mc {
namespace {

using netlist::FourValue;
using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using enum netlist::FourValue;

SimValue sv(FourValue v, double t = 0.0) { return {v, t}; }

TEST(EvalGateTimed, AndRiseTakesMax) {
  const SimValue ins[2] = {sv(Rise, 1.0), sv(Rise, 3.0)};
  const SimValue out = eval_gate_timed(GateType::And, ins);
  EXPECT_EQ(out.value, Rise);
  EXPECT_DOUBLE_EQ(out.time, 3.0);
}

TEST(EvalGateTimed, AndFallTakesMin) {
  const SimValue ins[2] = {sv(Fall, 1.0), sv(Fall, 3.0)};
  const SimValue out = eval_gate_timed(GateType::And, ins);
  EXPECT_EQ(out.value, Fall);
  EXPECT_DOUBLE_EQ(out.time, 1.0);
}

TEST(EvalGateTimed, OrRiseTakesMin) {
  const SimValue ins[2] = {sv(Rise, 1.0), sv(Rise, 3.0)};
  const SimValue out = eval_gate_timed(GateType::Or, ins);
  EXPECT_EQ(out.value, Rise);
  EXPECT_DOUBLE_EQ(out.time, 1.0);
}

TEST(EvalGateTimed, OrFallTakesMax) {
  const SimValue ins[2] = {sv(Fall, 1.0), sv(Fall, 3.0)};
  const SimValue out = eval_gate_timed(GateType::Or, ins);
  EXPECT_EQ(out.value, Fall);
  EXPECT_DOUBLE_EQ(out.time, 3.0);
}

TEST(EvalGateTimed, StaticSideInputsPassThrough) {
  const SimValue ins[2] = {sv(One), sv(Rise, 2.0)};
  const SimValue out = eval_gate_timed(GateType::And, ins);
  EXPECT_EQ(out.value, Rise);
  EXPECT_DOUBLE_EQ(out.time, 2.0);

  const SimValue blocked[2] = {sv(Zero), sv(Rise, 2.0)};
  EXPECT_EQ(eval_gate_timed(GateType::And, blocked).value, Zero);
}

TEST(EvalGateTimed, NandInvertsDirections) {
  const SimValue ins[2] = {sv(One), sv(Rise, 2.0)};
  const SimValue out = eval_gate_timed(GateType::Nand, ins);
  EXPECT_EQ(out.value, Fall);
  EXPECT_DOUBLE_EQ(out.time, 2.0);
  // NAND output rise: first falling input decides (MIN).
  const SimValue falls[2] = {sv(Fall, 1.5), sv(Fall, 4.0)};
  const SimValue out2 = eval_gate_timed(GateType::Nand, falls);
  EXPECT_EQ(out2.value, Rise);
  EXPECT_DOUBLE_EQ(out2.time, 1.5);
}

TEST(EvalGateTimed, GlitchFilteredToConstant) {
  // r meets f at an AND: the output pulses (or stays 0) and is reported 0.
  SimRunStats stats;
  const SimValue ins[2] = {sv(Rise, 1.0), sv(Fall, 2.0)};
  const SimValue out = eval_gate_timed(GateType::And, ins, &stats);
  EXPECT_EQ(out.value, Zero);
  EXPECT_EQ(stats.glitching_gates, 1u);  // 1 -> ... -> 0? rise@1, fall@2 pulses
}

TEST(EvalGateTimed, NoGlitchWhenPulseImpossible) {
  // Fall before rise: output never leaves 0 — no glitch recorded.
  SimRunStats stats;
  const SimValue ins[2] = {sv(Rise, 3.0), sv(Fall, 1.0)};
  const SimValue out = eval_gate_timed(GateType::And, ins, &stats);
  EXPECT_EQ(out.value, Zero);
  EXPECT_EQ(stats.glitching_gates, 0u);
}

TEST(EvalGateTimed, XorSettlesAtLastEvent) {
  const SimValue ins[2] = {sv(Rise, 1.0), sv(Zero)};
  EXPECT_EQ(eval_gate_timed(GateType::Xor, ins).value, Rise);

  // Two switching inputs of opposite direction: 0^1=1 ... 1^0=1, constant
  // 1 with a pulse in between (glitch filtered).
  SimRunStats stats;
  const SimValue both[2] = {sv(Rise, 1.0), sv(Fall, 2.0)};
  const SimValue out = eval_gate_timed(GateType::Xor, both, &stats);
  EXPECT_EQ(out.value, One);
  EXPECT_EQ(stats.glitching_gates, 1u);

  // Three rising inputs: parity goes 0 -> 1 -> 0 -> 1; settles at the last.
  const SimValue three[3] = {sv(Rise, 1.0), sv(Rise, 2.0), sv(Rise, 5.0)};
  const SimValue out3 = eval_gate_timed(GateType::Xor, three, &stats);
  EXPECT_EQ(out3.value, Rise);
  EXPECT_DOUBLE_EQ(out3.time, 5.0);
}

TEST(EvalGateTimed, NotAndBuf) {
  const SimValue r[1] = {sv(Rise, 2.5)};
  const SimValue inv = eval_gate_timed(GateType::Not, r);
  EXPECT_EQ(inv.value, Fall);
  EXPECT_DOUBLE_EQ(inv.time, 2.5);
  const SimValue buf = eval_gate_timed(GateType::Buf, r);
  EXPECT_EQ(buf.value, Rise);
}

TEST(EvalGateTimed, ValueAgreesWithFourValueTable) {
  // The timed evaluator's value must equal eval_four_value on every
  // two-input combination for every gate type.
  static constexpr FourValue kAll[4] = {Zero, One, Rise, Fall};
  for (GateType t : {GateType::And, GateType::Nand, GateType::Or, GateType::Nor,
                     GateType::Xor, GateType::Xnor}) {
    for (FourValue a : kAll) {
      for (FourValue b : kAll) {
        const SimValue ins[2] = {sv(a, 1.0), sv(b, 2.0)};
        const netlist::FourValue vals[2] = {a, b};
        EXPECT_EQ(eval_gate_timed(t, ins).value, netlist::eval_four_value(t, vals))
            << to_string(t) << "(" << to_string(a) << "," << to_string(b) << ")";
      }
    }
  }
}

TEST(EvalGateTimed, SimultaneousEventsKeepInputOrder) {
  // Equal times are swept in input order. An AND whose r@1 is listed before
  // its f@1 sees the output rise then fall (a filtered pulse, 2 raw
  // changes); listed after it, the output never moves.
  for (const std::size_t static_ones : {0u, 16u}) {  // 2 and 18 inputs
    std::vector<SimValue> rise_first(static_ones, sv(One));
    rise_first.push_back(sv(Rise, 1.0));
    rise_first.push_back(sv(Fall, 1.0));
    std::vector<SimValue> fall_first(static_ones, sv(One));
    fall_first.push_back(sv(Fall, 1.0));
    fall_first.push_back(sv(Rise, 1.0));

    SimRunStats stats;
    std::size_t changes = 0;
    EXPECT_EQ(eval_gate_timed(GateType::And, rise_first, &stats, &changes).value, Zero);
    EXPECT_EQ(changes, 2u) << rise_first.size() << " inputs";
    EXPECT_EQ(stats.glitching_gates, 1u);
    EXPECT_EQ(eval_gate_timed(GateType::And, fall_first, &stats, &changes).value, Zero);
    EXPECT_EQ(changes, 0u) << fall_first.size() << " inputs";
    EXPECT_EQ(stats.glitching_gates, 1u);
  }
}

TEST(SimulateOnce, ChainWithUnitDelays) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b1 = n.add_gate(GateType::Not, "b1", {a});
  const NodeId b2 = n.add_gate(GateType::Not, "b2", {b1});
  n.mark_output(b2);

  const netlist::Levelization lv = netlist::levelize(n);
  const std::vector<SimValue> srcs{sv(Rise, 0.5)};
  const std::vector<double> delays{0.0, 1.0, 1.0};
  const auto value = simulate_once(n, lv, srcs, delays);
  EXPECT_EQ(value[b1].value, Fall);
  EXPECT_DOUBLE_EQ(value[b1].time, 1.5);
  EXPECT_EQ(value[b2].value, Rise);
  EXPECT_DOUBLE_EQ(value[b2].time, 2.5);
}

TEST(SimulateOnce, ValidatesSpans) {
  const Netlist n = netlist::make_s27();
  const netlist::Levelization lv = netlist::levelize(n);
  EXPECT_THROW(
      (void)simulate_once(n, lv, std::vector<SimValue>(2),
                          std::vector<double>(n.node_count(), 1.0)),
      std::invalid_argument);
  EXPECT_THROW((void)simulate_once(n, lv, std::vector<SimValue>(7),
                                   std::vector<double>(3, 1.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace spsta::mc
