// Tests for Boolean-difference probabilities and Najm transition-density
// propagation (paper Sec. 2.2.2, Eq. 6/7), cross-checked against the BDD
// engine and Monte Carlo toggle counts.

#include "power/transition_density.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "mc/monte_carlo.hpp"
#include "netlist/delay_model.hpp"
#include "netlist/iscas89.hpp"
#include "netlist/levelize.hpp"
#include "sigprob/boolean_difference.hpp"

namespace spsta::power {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

TEST(BooleanDifference, PerGateFormulas) {
  const std::vector<double> p{0.3, 0.5};
  // d(AND)/dx_i = product of the other inputs' one-probabilities.
  const auto and_diff = sigprob::boolean_difference_probabilities(GateType::And, p);
  EXPECT_NEAR(and_diff[0], 0.5, 1e-12);
  EXPECT_NEAR(and_diff[1], 0.3, 1e-12);
  // NAND sensitization is identical to AND.
  const auto nand_diff = sigprob::boolean_difference_probabilities(GateType::Nand, p);
  EXPECT_NEAR(nand_diff[0], 0.5, 1e-12);
  // OR: product of the other inputs' zero-probabilities.
  const auto or_diff = sigprob::boolean_difference_probabilities(GateType::Or, p);
  EXPECT_NEAR(or_diff[0], 0.5, 1e-12);
  EXPECT_NEAR(or_diff[1], 0.7, 1e-12);
  // XOR always sensitizes.
  const auto xor_diff = sigprob::boolean_difference_probabilities(GateType::Xor, p);
  EXPECT_NEAR(xor_diff[0], 1.0, 1e-12);
  EXPECT_NEAR(xor_diff[1], 1.0, 1e-12);
  // Inverters pass everything through.
  const auto not_diff =
      sigprob::boolean_difference_probabilities(GateType::Not, std::vector<double>{0.3});
  EXPECT_NEAR(not_diff[0], 1.0, 1e-12);
}

TEST(BooleanDifference, ThreeInputAnd) {
  const std::vector<double> p{0.5, 0.4, 0.8};
  const auto diff = sigprob::boolean_difference_probabilities(GateType::And, p);
  EXPECT_NEAR(diff[0], 0.32, 1e-12);
  EXPECT_NEAR(diff[1], 0.40, 1e-12);
  EXPECT_NEAR(diff[2], 0.20, 1e-12);
}

TEST(TransitionDensity, NajmAndGateExample) {
  // Classic example: 2-input AND, both inputs p=0.5, density rho.
  // rho_y = 0.5*rho1 + 0.5*rho2.
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId y = n.add_gate(GateType::And, "y", {a, b});
  const std::vector<double> probs{0.5};
  const std::vector<double> dens{0.5};
  const TransitionDensities td = propagate_transition_density(n, probs, dens);
  EXPECT_NEAR(td.density[y], 0.5, 1e-12);
  EXPECT_NEAR(td.signal_probability[y], 0.25, 1e-12);
}

TEST(TransitionDensity, XorDoublesDensity) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId y = n.add_gate(GateType::Xor, "y", {a, b});
  const std::vector<double> probs{0.5};
  const std::vector<double> dens{0.3};
  const TransitionDensities td = propagate_transition_density(n, probs, dens);
  EXPECT_NEAR(td.density[y], 0.6, 1e-12);
}

TEST(TransitionDensity, BufferChainPreservesDensity) {
  Netlist n;
  NodeId prev = n.add_input("a");
  for (int i = 0; i < 4; ++i) {
    prev = n.add_gate(i % 2 ? GateType::Buf : GateType::Not, "g" + std::to_string(i),
                      {prev});
  }
  const TransitionDensities td = propagate_transition_density(
      n, std::vector<double>{0.5}, std::vector<double>{0.7});
  EXPECT_NEAR(td.density[prev], 0.7, 1e-12);
}

TEST(TransitionDensity, ExactBddMatchesIndependentOnTree) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId c = n.add_input("c");
  const NodeId g1 = n.add_gate(GateType::And, "g1", {a, b});
  const NodeId g2 = n.add_gate(GateType::Or, "g2", {g1, c});
  n.mark_output(g2);

  const std::vector<double> probs{0.5};
  const std::vector<double> dens{0.5};
  const TransitionDensities indep =
      propagate_transition_density(n, probs, dens, DensityMethod::Independent);
  const TransitionDensities exact =
      propagate_transition_density(n, probs, dens, DensityMethod::ExactBdd);
  for (NodeId id = 0; id < n.node_count(); ++id) {
    EXPECT_NEAR(indep.density[id], exact.density[id], 1e-9) << n.node(id).name;
  }
}

TEST(TransitionDensity, ApproximatesMonteCarloRawEdgeRate) {
  // Transition density predicts *pre-glitch-filter* edge counts, so the
  // right MC reference is the raw edge rate, not the filtered four-value
  // toggle probability. The density model still ignores correlation and
  // downstream pulse propagation, hence the moderate tolerance.
  const Netlist n = netlist::make_paper_circuit("s298");
  const netlist::SourceStats sc = netlist::scenario_I();

  const TransitionDensities td = propagate_transition_density(
      n, std::vector<double>{sc.probs.final_one()},
      std::vector<double>{sc.probs.toggle_probability()});

  mc::MonteCarloConfig cfg;
  cfg.runs = 4000;
  cfg.seed = 5;
  const auto mc_result = mc::run_monte_carlo(n, netlist::DelayModel::unit(n),
                                             std::vector{sc}, cfg);
  const netlist::Levelization lv = netlist::levelize(n);
  double l1_density = 0.0, l1_raw = 0.0;
  double mean_density = 0.0, mean_raw = 0.0, mean_filtered = 0.0;
  std::size_t l1_count = 0, count = 0;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (!netlist::is_combinational(n.node(id).type)) continue;
    mean_density += td.density[id];
    mean_raw += mc_result.node[id].raw_edge_rate();
    mean_filtered += mc_result.node[id].probs().toggle_probability();
    ++count;
    if (lv.level[id] == 1) {  // fed directly by sources: density is exact
      l1_density += td.density[id];
      l1_raw += mc_result.node[id].raw_edge_rate();
      ++l1_count;
    }
  }
  ASSERT_GT(l1_count, 0u);
  EXPECT_NEAR(l1_density / l1_count, l1_raw / l1_count, 0.05 * l1_raw / l1_count + 0.01);

  mean_density /= static_cast<double>(count);
  mean_raw /= static_cast<double>(count);
  mean_filtered /= static_cast<double>(count);
  // Deeper in the circuit the density model propagates unfiltered edge
  // rates, so it sits above the filtered substrate but within a small
  // factor of the raw edge rate.
  EXPECT_GT(mean_density, mean_filtered);
  EXPECT_NEAR(mean_density, mean_raw, 0.6 * mean_raw);
  EXPECT_LT(mean_filtered, mean_raw + 1e-12);
}

TEST(DynamicPower, ScalesLinearly) {
  TransitionDensities td;
  td.density = {0.5, 0.25, 0.25};
  const double p = dynamic_power(td, 1.0, 1e9, 1e-15);
  EXPECT_NEAR(p, 0.5 * 1.0 * 1e9 * 1e-15 * 1.0, 1e-18);
  EXPECT_NEAR(dynamic_power(td, 2.0, 1e9, 1e-15), 4.0 * p, 1e-15);
}

TEST(TransitionDensity, SourceSpanMismatchThrows) {
  const Netlist n = netlist::make_s27();
  EXPECT_THROW((void)propagate_transition_density(n, std::vector<double>{0.5, 0.5},
                                                  std::vector<double>{0.5}),
               std::invalid_argument);
}

}  // namespace
}  // namespace spsta::power
