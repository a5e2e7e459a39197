// Analyzer facade contract (spsta_api.hpp): request validation rejects
// options the selected engine cannot honor (instead of silently ignoring
// them — the old SpstaOptions doc/behavior mismatch), typed report
// accessors reject wrong-engine access, every engine dispatched through
// the facade is bit-identical to its legacy entry point, and ECO edits
// invalidate the compiled plan exactly when they must.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "spsta_api.hpp"

namespace spsta {
namespace {

using netlist::NodeId;

netlist::Netlist test_circuit() {
  netlist::GeneratorSpec spec;
  spec.name = "api";
  spec.num_inputs = 10;
  spec.num_outputs = 4;
  spec.num_gates = 80;
  spec.target_depth = 6;
  spec.seed = 7;
  return netlist::generate_circuit(spec);
}

TEST(SpstaApi, EngineNamesRoundTrip) {
  for (const Engine e : {Engine::SpstaMoment, Engine::SpstaNumeric,
                         Engine::Canonical, Engine::Ssta, Engine::Mc}) {
    const std::optional<Engine> parsed = parse_engine(to_string(e));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, e);
  }
  EXPECT_FALSE(parse_engine("bogus").has_value());
  EXPECT_FALSE(parse_engine("").has_value());
}

// Satellite of the doc/behavior mismatch fix: the moment engine used to
// silently ignore the grid fields of SpstaOptions; through the facade a
// request that sets an option its engine cannot honor is an error.
TEST(SpstaApi, ValidateRejectsOptionsTheEngineCannotHonor) {
  AnalysisRequest request;
  request.engine = Engine::SpstaMoment;
  request.grid_dt = 0.1;
  EXPECT_THROW(Analyzer::validate(request), std::invalid_argument);

  request = {};
  request.engine = Engine::Ssta;
  request.grid_pad_sigma = 4.0;
  EXPECT_THROW(Analyzer::validate(request), std::invalid_argument);

  request = {};
  request.engine = Engine::Canonical;
  request.max_grid_points = 512;
  EXPECT_THROW(Analyzer::validate(request), std::invalid_argument);

  request = {};
  request.engine = Engine::Ssta;
  request.runs = 1000;
  EXPECT_THROW(Analyzer::validate(request), std::invalid_argument);

  request = {};
  request.engine = Engine::SpstaNumeric;
  request.seed = 3;
  EXPECT_THROW(Analyzer::validate(request), std::invalid_argument);

  request = {};
  request.engine = Engine::SpstaMoment;
  request.track_circuit_max = true;
  EXPECT_THROW(Analyzer::validate(request), std::invalid_argument);

  // The same options on their own engines are fine; threads everywhere.
  request = {};
  request.engine = Engine::SpstaNumeric;
  request.grid_dt = 0.1;
  request.grid_pad_sigma = 4.0;
  request.max_grid_points = 512;
  request.threads = 4;
  EXPECT_NO_THROW(Analyzer::validate(request));

  request = {};
  request.engine = Engine::Mc;
  request.runs = 1000;
  request.seed = 3;
  request.track_circuit_max = true;
  EXPECT_NO_THROW(Analyzer::validate(request));
}

TEST(SpstaApi, ValidateRejectsOutOfRangeValues) {
  AnalysisRequest request;
  request.engine = Engine::SpstaNumeric;
  request.grid_dt = 0.0;
  EXPECT_THROW(Analyzer::validate(request), std::invalid_argument);

  request = {};
  request.engine = Engine::SpstaNumeric;
  request.grid_pad_sigma = -1.0;
  EXPECT_THROW(Analyzer::validate(request), std::invalid_argument);

  request = {};
  request.engine = Engine::SpstaNumeric;
  request.max_grid_points = 1;
  EXPECT_THROW(Analyzer::validate(request), std::invalid_argument);
}

// run() validates before dispatch, so a bad request never runs an engine.
TEST(SpstaApi, RunRejectsInvalidRequests) {
  Analyzer analyzer(test_circuit());
  AnalysisRequest request;
  request.engine = Engine::SpstaMoment;
  request.grid_dt = 0.1;
  EXPECT_THROW((void)analyzer.run(request), std::invalid_argument);
}

TEST(SpstaApi, ReportAccessorsRejectWrongEngine) {
  Analyzer analyzer(test_circuit());
  AnalysisRequest request;
  request.engine = Engine::SpstaMoment;
  const AnalysisReport report = analyzer.run(request);

  EXPECT_EQ(report.engine, Engine::SpstaMoment);
  EXPECT_NO_THROW((void)report.moment());
  EXPECT_THROW((void)report.numeric(), std::logic_error);
  EXPECT_THROW((void)report.canonical(), std::logic_error);
  EXPECT_THROW((void)report.ssta(), std::logic_error);
  EXPECT_THROW((void)report.monte_carlo(), std::logic_error);
}

// Every engine through the facade must match its legacy entry point bit
// for bit: the facade is plumbing, never a result change.
TEST(SpstaApi, EveryEngineMatchesLegacyEntryPoint) {
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);
  const std::vector sources{netlist::scenario_I()};
  Analyzer analyzer(n, d, sources);

  AnalysisRequest request;
  request.engine = Engine::SpstaMoment;
  {
    const AnalysisReport report = analyzer.run(request);
    const core::SpstaResult& got = report.moment();
    const core::SpstaResult want = core::run_spsta_moment(n, d, sources);
    ASSERT_EQ(got.node.size(), want.node.size());
    for (std::size_t id = 0; id < got.node.size(); ++id) {
      ASSERT_EQ(got.node[id].probs.pr, want.node[id].probs.pr);
      ASSERT_EQ(got.node[id].rise.mass, want.node[id].rise.mass);
      ASSERT_EQ(got.node[id].rise.arrival.mean, want.node[id].rise.arrival.mean);
      ASSERT_EQ(got.node[id].rise.arrival.var, want.node[id].rise.arrival.var);
      ASSERT_EQ(got.node[id].rise.third_central, want.node[id].rise.third_central);
      ASSERT_EQ(got.node[id].fall.arrival.mean, want.node[id].fall.arrival.mean);
    }
  }

  request.engine = Engine::SpstaNumeric;
  {
    const AnalysisReport report = analyzer.run(request);
    const core::SpstaNumericResult& got = report.numeric();
    const core::SpstaNumericResult want = core::run_spsta_numeric(n, d, sources);
    ASSERT_EQ(got.grid, want.grid);
    ASSERT_EQ(got.node.size(), want.node.size());
    for (std::size_t id = 0; id < got.node.size(); ++id) {
      const std::span<const double> gv = got.node[id].rise.values();
      const std::span<const double> wv = want.node[id].rise.values();
      ASSERT_EQ(std::vector<double>(gv.begin(), gv.end()),
                std::vector<double>(wv.begin(), wv.end()));
    }
  }

  request.engine = Engine::Canonical;
  {
    const AnalysisReport report = analyzer.run(request);
    const core::SpstaCanonicalResult& got = report.canonical();
    const core::SpstaCanonicalResult want = core::run_spsta_canonical(n, d, sources);
    ASSERT_EQ(got.num_params, want.num_params);
    ASSERT_EQ(got.node.size(), want.node.size());
    for (std::size_t id = 0; id < got.node.size(); ++id) {
      ASSERT_EQ(got.node[id].rise.mass, want.node[id].rise.mass);
      ASSERT_EQ(got.node[id].rise.arrival.nominal(),
                want.node[id].rise.arrival.nominal());
      ASSERT_EQ(got.node[id].rise.arrival.residual(),
                want.node[id].rise.arrival.residual());
    }
  }

  request.engine = Engine::Ssta;
  {
    const AnalysisReport report = analyzer.run(request);
    const ssta::SstaResult& got = report.ssta();
    const ssta::SstaResult want = ssta::run_ssta(n, d, sources);
    ASSERT_EQ(got.arrival.size(), want.arrival.size());
    for (std::size_t id = 0; id < got.arrival.size(); ++id) {
      ASSERT_EQ(got.arrival[id].rise.mean, want.arrival[id].rise.mean);
      ASSERT_EQ(got.arrival[id].rise.var, want.arrival[id].rise.var);
      ASSERT_EQ(got.arrival[id].fall.mean, want.arrival[id].fall.mean);
      ASSERT_EQ(got.arrival[id].fall.var, want.arrival[id].fall.var);
    }
  }

  request.engine = Engine::Mc;
  request.runs = 2000;
  request.seed = 11;
  request.track_circuit_max = true;
  {
    const AnalysisReport report = analyzer.run(request);
    const mc::MonteCarloResult& got = report.monte_carlo();
    mc::MonteCarloConfig cfg;
    cfg.runs = 2000;
    cfg.seed = 11;
    cfg.track_circuit_max = true;
    const mc::MonteCarloResult want = mc::run_monte_carlo(n, d, sources, cfg);
    ASSERT_EQ(got.node.size(), want.node.size());
    for (std::size_t id = 0; id < got.node.size(); ++id) {
      for (int v = 0; v < 4; ++v) {
        ASSERT_EQ(got.node[id].count[v], want.node[id].count[v]);
      }
      ASSERT_EQ(got.node[id].raw_edges, want.node[id].raw_edges);
      ASSERT_EQ(got.node[id].rise_time.mean(), want.node[id].rise_time.mean());
    }
    ASSERT_EQ(got.circuit_max_samples, want.circuit_max_samples);
  }
}

// set_delay patches the plan's delay model in place (content hash moves,
// results track the new delays); set_source leaves the plan alone (source
// stats are run inputs, not part of the plan) but results still track the
// new statistics.
TEST(SpstaApi, EcoEditsInvalidateExactlyWhenTheyMust) {
  const netlist::Netlist n = test_circuit();
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  Analyzer analyzer(n, d, {netlist::scenario_I()});

  const std::uint64_t hash_before = analyzer.content_hash();

  NodeId gate = netlist::kInvalidNode;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (!n.node(id).fanins.empty() && !n.is_timing_source(id)) {
      gate = id;
      break;
    }
  }
  ASSERT_NE(gate, netlist::kInvalidNode);

  const stats::Gaussian new_delay{3.0, 0.04};
  analyzer.set_delay(gate, new_delay);
  EXPECT_NE(analyzer.content_hash(), hash_before);

  d.set_delay(gate, new_delay);
  AnalysisRequest request;
  request.engine = Engine::SpstaMoment;
  {
    const AnalysisReport report = analyzer.run(request);
    const core::SpstaResult& got = report.moment();
    const std::vector sources{netlist::scenario_I()};
    const core::SpstaResult want = core::run_spsta_moment(n, d, sources);
    ASSERT_EQ(got.node.size(), want.node.size());
    for (std::size_t id = 0; id < got.node.size(); ++id) {
      ASSERT_EQ(got.node[id].rise.arrival.mean, want.node[id].rise.arrival.mean);
      ASSERT_EQ(got.node[id].rise.arrival.var, want.node[id].rise.arrival.var);
    }
  }

  // set_source: hash stays (the plan survives), results move. A single
  // broadcast entry is expanded so per-source edits address real indices.
  const std::uint64_t hash_after_delay = analyzer.content_hash();
  analyzer.set_source(1, netlist::scenario_II());
  EXPECT_EQ(analyzer.content_hash(), hash_after_delay);
  ASSERT_EQ(analyzer.sources().size(), n.timing_sources().size());
  {
    std::vector sources(n.timing_sources().size(), netlist::scenario_I());
    sources[1] = netlist::scenario_II();
    const AnalysisReport report = analyzer.run(request);
    const core::SpstaResult& got = report.moment();
    const core::SpstaResult want = core::run_spsta_moment(n, d, sources);
    for (std::size_t id = 0; id < got.node.size(); ++id) {
      ASSERT_EQ(got.node[id].probs.pr, want.node[id].probs.pr);
      ASSERT_EQ(got.node[id].rise.arrival.mean, want.node[id].rise.arrival.mean);
    }
  }

  EXPECT_THROW(analyzer.set_source(n.timing_sources().size(), netlist::scenario_I()),
               std::invalid_argument);
  EXPECT_THROW(analyzer.set_delay(static_cast<NodeId>(n.node_count()), new_delay),
               std::invalid_argument);
}

// A delay edit never recompiles: the plan is the same object before and
// after, nothing re-levelizes on the next run, and that run matches a fresh
// Analyzer on the edited delays.
TEST(SpstaApi, SetDelayPatchesThePlanInPlace) {
  const netlist::Netlist n = test_circuit();
  netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);
  Analyzer analyzer(n, d, {netlist::scenario_I()});
  const core::CompiledDesign* const plan = &analyzer.plan();
  const std::uint64_t epoch = plan->delay_epoch();

  NodeId gate = netlist::kInvalidNode;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (!n.node(id).fanins.empty() && !n.is_timing_source(id)) gate = id;
  }
  ASSERT_NE(gate, netlist::kInvalidNode);

  obs::LatencyHistogram& levelize = obs::registry().histogram("stage.levelize");
  const std::uint64_t levelized = levelize.count();
  analyzer.set_delay(gate, {2.5, 0.02});
  AnalysisRequest request;
  request.engine = Engine::Ssta;
  const AnalysisReport got = analyzer.run(request);
  EXPECT_EQ(levelize.count(), levelized);
  EXPECT_EQ(&analyzer.plan(), plan);
  EXPECT_EQ(plan->delay_epoch(), epoch + 1);
  EXPECT_EQ(analyzer.delays().delay(gate).mean, 2.5);

  d.set_delay(gate, {2.5, 0.02});
  Analyzer fresh(n, d, {netlist::scenario_I()});
  const AnalysisReport want = fresh.run(request);
  ASSERT_EQ(got.ssta().arrival.size(), want.ssta().arrival.size());
  for (std::size_t id = 0; id < got.ssta().arrival.size(); ++id) {
    ASSERT_EQ(got.ssta().arrival[id].rise.mean, want.ssta().arrival[id].rise.mean);
    ASSERT_EQ(got.ssta().arrival[id].fall.var, want.ssta().arrival[id].fall.var);
  }
  EXPECT_EQ(analyzer.content_hash(), fresh.content_hash());
}

// Construction guards: the delay model and source list must match the
// netlist they claim to describe.
TEST(SpstaApi, ConstructorRejectsMismatchedInputs) {
  const netlist::Netlist n = test_circuit();

  netlist::GeneratorSpec small;
  small.num_inputs = 2;
  small.num_gates = 4;
  small.target_depth = 2;
  const netlist::Netlist other = netlist::generate_circuit(small);

  EXPECT_THROW(Analyzer(n, netlist::DelayModel::unit(other), {netlist::scenario_I()}),
               std::invalid_argument);
  EXPECT_THROW(Analyzer(n, netlist::DelayModel::unit(n),
                        std::vector<netlist::SourceStats>(3, netlist::scenario_I())),
               std::invalid_argument);
}

}  // namespace
}  // namespace spsta
