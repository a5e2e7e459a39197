// Cross-module integration: SPSTA yield and scenario invariants validated
// against Monte Carlo on suite circuits.

#include <cmath>

#include <gtest/gtest.h>

#include "core/spsta.hpp"
#include "core/yield.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/iscas89.hpp"

namespace spsta {
namespace {

using netlist::NodeId;

TEST(IntegrationPipeline, YieldCurveTracksMcOnSuiteCircuit) {
  const netlist::Netlist n = netlist::make_paper_circuit("s344");
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};

  core::SpstaOptions opt;
  opt.grid_dt = 0.02;
  const core::SpstaNumericResult spsta = core::run_spsta_numeric(n, d, sc, opt);

  mc::MonteCarloConfig cfg;
  cfg.runs = 30000;
  cfg.seed = 77;
  cfg.track_circuit_max = true;
  const mc::MonteCarloResult mcr = mc::run_monte_carlo(n, d, sc, cfg);

  // Compare the yield curves at several periods. SPSTA's independence
  // approximation across endpoints biases the product pessimistic (shared
  // cones make late arrivals coincide in reality), so the band is loose
  // in the mid-curve; the pessimistic direction and the tails are exact
  // requirements.
  double max_err = 0.0;
  double prev = -1.0;
  for (double period = 4.0; period <= 14.0; period += 1.0) {
    const double y_spsta = core::timing_yield(n, spsta, period);
    const double y_mc = mcr.empirical_yield(period);
    max_err = std::max(max_err, std::abs(y_spsta - y_mc));
    EXPECT_LE(y_spsta, y_mc + 0.02) << "yield estimate should err pessimistic";
    EXPECT_GE(y_spsta, prev - 1e-9);  // monotone
    prev = y_spsta;
  }
  EXPECT_LT(max_err, 0.3);
  // Both saturate at 1 for generous periods.
  EXPECT_NEAR(core::timing_yield(n, spsta, 40.0), 1.0, 1e-6);
  EXPECT_NEAR(mcr.empirical_yield(40.0), 1.0, 1e-9);
}

TEST(IntegrationPipeline, ScenarioSweepKeepsInvariants) {
  // Sweep asymmetric per-source scenarios on one circuit; core invariants
  // must hold under heterogeneous inputs too.
  const netlist::Netlist n = netlist::make_paper_circuit("s382");
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  std::vector<netlist::SourceStats> sc(n.timing_sources().size());
  for (std::size_t i = 0; i < sc.size(); ++i) {
    sc[i] = (i % 3 == 0)   ? netlist::scenario_II()
            : (i % 3 == 1) ? netlist::scenario_I()
                           : netlist::SourceStats{{0.4, 0.4, 0.1, 0.1},
                                                  {0.5, 0.25},
                                                  {-0.5, 0.25}};
  }
  const core::SpstaResult r = core::run_spsta_moment(n, d, sc);
  for (NodeId id = 0; id < n.node_count(); ++id) {
    EXPECT_TRUE(r.node[id].probs.is_valid(1e-9)) << n.node(id).name;
    EXPECT_NEAR(r.node[id].rise.mass, r.node[id].probs.pr, 1e-9);
    EXPECT_GE(r.node[id].rise.arrival.var, 0.0);
  }
}

}  // namespace
}  // namespace spsta
