// Tests for direction-dependent (rise/fall) gate delays across every
// engine: the model, SSTA, SPSTA (moment + numeric), canonical SSTA and
// the Monte Carlo ground truth.

#include <cmath>

#include <gtest/gtest.h>

#include "core/spsta.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/iscas89.hpp"
#include "ssta/canonical_ssta.hpp"
#include "ssta/ssta.hpp"

namespace spsta {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

TEST(DirectionalDelay, ModelFallbackAndOverrides) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId g = n.add_gate(GateType::Buf, "g", {a});
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  EXPECT_FALSE(d.is_directional(g));
  EXPECT_EQ(d.delay(g, true).mean, 1.0);

  d.set_rise_delay(g, {1.5, 0.0});
  EXPECT_TRUE(d.is_directional(g));
  EXPECT_EQ(d.delay(g, true).mean, 1.5);
  EXPECT_EQ(d.delay(g, false).mean, 1.0);  // falls back to common
  // means() reports the worse direction.
  EXPECT_EQ(d.means()[g], 1.5);
  // set_delay clears the overrides.
  d.set_delay(g, {2.0, 0.0});
  EXPECT_FALSE(d.is_directional(g));
  EXPECT_EQ(d.delay(g, true).mean, 2.0);
}

TEST(DirectionalDelay, SstaUsesMatchingLane) {
  // Inverter: output rise (from input fall) uses the rise delay.
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId inv = n.add_gate(GateType::Not, "inv", {a});
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  d.set_rise_delay(inv, {2.0, 0.0});
  d.set_fall_delay(inv, {0.5, 0.0});

  netlist::SourceStats sc;
  sc.rise_arrival = {0.0, 1.0};
  sc.fall_arrival = {0.0, 1.0};
  const ssta::SstaResult r = ssta::run_ssta(n, d, std::vector{sc});
  EXPECT_DOUBLE_EQ(r.arrival[inv].rise.mean, 2.0);  // input fall + rise delay
  EXPECT_DOUBLE_EQ(r.arrival[inv].fall.mean, 0.5);
}

TEST(DirectionalDelay, SpstaMomentMatchesMonteCarlo) {
  // Asymmetric buffer chain: rising transitions accumulate the rise
  // delays, falling ones the fall delays.
  Netlist n;
  NodeId prev = n.add_input("a");
  netlist::DelayModel d(n);
  std::vector<NodeId> gates;
  for (int i = 0; i < 3; ++i) {
    prev = n.add_gate(GateType::Buf, "b" + std::to_string(i), {prev});
    gates.push_back(prev);
  }
  n.mark_output(prev);
  netlist::DelayModel dm = netlist::DelayModel::unit(n);
  for (NodeId g : gates) {
    dm.set_rise_delay(g, {1.4, 0.0});
    dm.set_fall_delay(g, {0.6, 0.0});
  }

  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  const core::SpstaResult spsta = core::run_spsta_moment(n, dm, sc);
  EXPECT_NEAR(spsta.node[prev].rise.arrival.mean, 3 * 1.4, 1e-9);
  EXPECT_NEAR(spsta.node[prev].fall.arrival.mean, 3 * 0.6, 1e-9);

  mc::MonteCarloConfig cfg;
  cfg.runs = 30000;
  cfg.seed = 4;
  const mc::MonteCarloResult mcr = mc::run_monte_carlo(n, dm, sc, cfg);
  EXPECT_NEAR(mcr.node[prev].rise_time.mean(), 3 * 1.4, 0.03);
  EXPECT_NEAR(mcr.node[prev].fall_time.mean(), 3 * 0.6, 0.03);
}

TEST(DirectionalDelay, NumericEngineAgrees) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId g = n.add_gate(GateType::Buf, "g", {a});
  n.mark_output(g);
  netlist::DelayModel dm = netlist::DelayModel::unit(n);
  dm.set_rise_delay(g, {2.0, 0.0});
  dm.set_fall_delay(g, {0.5, 0.0});
  const core::SpstaNumericResult r = core::run_spsta_numeric(
      n, dm, std::vector{netlist::scenario_I()});
  EXPECT_NEAR(r.node[g].rise.mean(), 2.0, 0.02);
  EXPECT_NEAR(r.node[g].fall.mean(), 0.5, 0.02);
}

TEST(DirectionalDelay, CanonicalSstaAgrees) {
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId g = n.add_gate(GateType::Buf, "g", {a});
  n.mark_output(g);
  netlist::DelayModel dm = netlist::DelayModel::unit(n);
  dm.set_rise_delay(g, {2.0, 0.04});
  dm.set_fall_delay(g, {0.5, 0.01});
  netlist::SourceStats sc;
  sc.rise_arrival = {0.0, 0.0};
  sc.fall_arrival = {0.0, 0.0};
  const ssta::CanonicalSstaResult r =
      ssta::run_canonical_ssta(n, dm, std::vector{sc});
  EXPECT_NEAR(r.arrival[g].rise.mean(), 2.0, 1e-9);
  EXPECT_NEAR(r.arrival[g].rise.variance(), 0.04, 1e-9);
  EXPECT_NEAR(r.arrival[g].fall.mean(), 0.5, 1e-9);
}

TEST(DirectionalDelay, McHonorsDirectionPerGate) {
  // NAND with always-rising inputs produces a falling output: only the
  // fall delay matters.
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId g = n.add_gate(GateType::Nand, "g", {a, b});
  n.mark_output(g);
  netlist::DelayModel dm = netlist::DelayModel::unit(n);
  dm.set_rise_delay(g, {9.0, 0.0});  // must not appear in results
  dm.set_fall_delay(g, {0.5, 0.0});

  netlist::SourceStats sc;
  sc.probs = {0.0, 0.0, 1.0, 0.0};
  sc.rise_arrival = {0.0, 1.0};
  mc::MonteCarloConfig cfg;
  cfg.runs = 20000;
  cfg.seed = 12;
  const mc::MonteCarloResult mcr = mc::run_monte_carlo(n, dm, std::vector{sc}, cfg);
  EXPECT_EQ(mcr.node[g].rise_time.count(), 0u);
  // fall arrival = max of two N(0,1) + 0.5.
  EXPECT_NEAR(mcr.node[g].fall_time.mean(), 1.0 / std::sqrt(M_PI) + 0.5, 0.03);
}

}  // namespace
}  // namespace spsta
