// Determinism contract of the parallel execution layer: the Monte Carlo
// driver and both SPSTA engines must produce BIT-IDENTICAL results at any
// thread count (see DESIGN.md §"Threading and determinism"). Every
// comparison below is exact double equality, not a tolerance.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_design.hpp"
#include "core/incremental_spsta.hpp"
#include "core/spsta.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "service/session.hpp"
#include "spsta_api.hpp"
#include "stats/conv_kernels.hpp"
#include "stats/simd.hpp"
#include "stats/workspace.hpp"

namespace spsta {
namespace {

using netlist::NodeId;

/// An ISCAS-scale generated circuit with reconvergent fanout and
/// variational delays — enough structure to exercise multi-level parallel
/// dispatch and multi-chunk Monte Carlo sharding.
netlist::Netlist test_circuit() {
  netlist::GeneratorSpec spec;
  spec.name = "det";
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 120;
  spec.target_depth = 8;
  spec.seed = 42;
  return netlist::generate_circuit(spec);
}

void expect_same_mc(const mc::MonteCarloResult& a, const mc::MonteCarloResult& b) {
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t id = 0; id < a.node.size(); ++id) {
    for (int v = 0; v < 4; ++v) ASSERT_EQ(a.node[id].count[v], b.node[id].count[v]);
    ASSERT_EQ(a.node[id].raw_edges, b.node[id].raw_edges);
    ASSERT_EQ(a.node[id].rise_time.count(), b.node[id].rise_time.count());
    ASSERT_EQ(a.node[id].rise_time.mean(), b.node[id].rise_time.mean());
    ASSERT_EQ(a.node[id].rise_time.variance(), b.node[id].rise_time.variance());
    ASSERT_EQ(a.node[id].fall_time.mean(), b.node[id].fall_time.mean());
    ASSERT_EQ(a.node[id].fall_time.variance(), b.node[id].fall_time.variance());
  }
  ASSERT_EQ(a.glitching_gates, b.glitching_gates);
  ASSERT_EQ(a.quiet_runs, b.quiet_runs);
  ASSERT_EQ(a.circuit_max.count(), b.circuit_max.count());
  ASSERT_EQ(a.circuit_max.mean(), b.circuit_max.mean());
  ASSERT_EQ(a.circuit_max.variance(), b.circuit_max.variance());
  ASSERT_EQ(a.circuit_max_samples, b.circuit_max_samples);
}

TEST(Determinism, MonteCarloIsThreadCountInvariant) {
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.08);
  const std::vector sources{netlist::scenario_I()};

  mc::MonteCarloConfig cfg;
  cfg.runs = 3000;  // > 8 chunks at the 256-run floor
  cfg.seed = 2026;
  cfg.track_circuit_max = true;

  mc::MonteCarloConfig cfg2 = cfg;
  cfg2.threads = 2;
  mc::MonteCarloConfig cfg8 = cfg;
  cfg8.threads = 8;

  const auto r1 = mc::run_monte_carlo(n, d, sources, cfg);
  const auto r2 = mc::run_monte_carlo(n, d, sources, cfg2);
  const auto r8 = mc::run_monte_carlo(n, d, sources, cfg8);
  expect_same_mc(r1, r2);
  expect_same_mc(r1, r8);
}

TEST(Determinism, MonteCarloIsRerunStable) {
  // Same (seed, runs) twice at a high thread count: the per-run stream
  // seeding makes the draw sequence a pure function of (seed, run index).
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.08);
  const std::vector sources{netlist::scenario_I()};
  mc::MonteCarloConfig cfg;
  cfg.runs = 1500;
  cfg.seed = 7;
  cfg.threads = 8;
  cfg.track_circuit_max = true;
  expect_same_mc(mc::run_monte_carlo(n, d, sources, cfg),
                 mc::run_monte_carlo(n, d, sources, cfg));
}

void expect_same_numeric(const core::SpstaNumericResult& a,
                         const core::SpstaNumericResult& b) {
  ASSERT_EQ(a.grid, b.grid);
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t id = 0; id < a.node.size(); ++id) {
    ASSERT_EQ(a.node[id].probs.p0, b.node[id].probs.p0);
    ASSERT_EQ(a.node[id].probs.p1, b.node[id].probs.p1);
    ASSERT_EQ(a.node[id].probs.pr, b.node[id].probs.pr);
    ASSERT_EQ(a.node[id].probs.pf, b.node[id].probs.pf);
    const auto rise_a = a.node[id].rise.values();
    const auto rise_b = b.node[id].rise.values();
    const auto fall_a = a.node[id].fall.values();
    const auto fall_b = b.node[id].fall.values();
    ASSERT_EQ(std::vector(rise_a.begin(), rise_a.end()),
              std::vector(rise_b.begin(), rise_b.end()));
    ASSERT_EQ(std::vector(fall_a.begin(), fall_a.end()),
              std::vector(fall_b.begin(), fall_b.end()));
  }
}

TEST(Determinism, NumericEngineIsThreadCountInvariant) {
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);
  const std::vector sources{netlist::scenario_I()};

  core::SpstaOptions o1;  // threads = 1 default
  core::SpstaOptions o2 = o1;
  o2.threads = 2;
  core::SpstaOptions o8 = o1;
  o8.threads = 8;

  const auto r1 = core::run_spsta_numeric(n, d, sources, o1);
  expect_same_numeric(r1, core::run_spsta_numeric(n, d, sources, o2));
  expect_same_numeric(r1, core::run_spsta_numeric(n, d, sources, o8));
}

TEST(Determinism, NumericEngineFftPathIsThreadCountInvariant) {
  // Force the kernel layer onto the FFT path (tiny crossover) on a dense
  // grid with truly stochastic delays: the kernel choice is a pure
  // function of sizes, so results stay bit-identical at any thread count.
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.12);
  const std::vector sources{netlist::scenario_I()};

  stats::set_conv_crossover(32);
  core::SpstaOptions o1;
  o1.grid_dt = 0.002;
  o1.max_grid_points = 1 << 14;
  core::SpstaOptions o2 = o1;
  o2.threads = 2;
  core::SpstaOptions o8 = o1;
  o8.threads = 8;

  const auto r1 = core::run_spsta_numeric(n, d, sources, o1);
  expect_same_numeric(r1, core::run_spsta_numeric(n, d, sources, o2));
  expect_same_numeric(r1, core::run_spsta_numeric(n, d, sources, o8));
  stats::set_conv_crossover(0);

  // Different crossover => possibly different kernels; results must still
  // agree to discretization accuracy (spot-check total mass per node).
  const auto r_direct = core::run_spsta_numeric(n, d, sources, o1);
  ASSERT_EQ(r1.node.size(), r_direct.node.size());
  for (std::size_t id = 0; id < r1.node.size(); ++id) {
    EXPECT_NEAR(r1.node[id].rise.mass(), r_direct.node[id].rise.mass(), 1e-7);
    EXPECT_NEAR(r1.node[id].fall.mass(), r_direct.node[id].fall.mass(), 1e-7);
  }
}

TEST(Determinism, NumericEngineSimdTierIsBitTransparent) {
  // The SIMD dispatch contract (stats/simd.hpp): every tier computes the
  // identical per-element operation DAG, so the engine's results must be
  // bit-identical between the auto-detected tier and the forced-scalar
  // reference — at any thread count, on both the direct and FFT kernel
  // paths. On hardware with no vector tier this degenerates to rerun
  // stability, which is still a meaningful check.
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.12);
  const std::vector sources{netlist::scenario_I()};

  core::SpstaOptions dense;  // dense grid => FFT path engages
  dense.grid_dt = 0.002;
  dense.max_grid_points = 1 << 14;

  for (const unsigned threads : {1u, 2u, 8u}) {
    core::SpstaOptions opt = dense;
    opt.threads = threads;
    stats::simd::set_force_scalar(false);
    const auto vec = core::run_spsta_numeric(n, d, sources, opt);
    stats::simd::set_force_scalar(true);
    const auto scalar = core::run_spsta_numeric(n, d, sources, opt);
    stats::simd::set_force_scalar(false);
    expect_same_numeric(vec, scalar);
  }
}

TEST(Determinism, NumericEngineLevelLoopDoesNotAllocateWhenWarm) {
  // threads = 1 dispatches inline on this thread, so the engine's scratch
  // is this thread's Workspace: after one warm run, further identical runs
  // must not grow any buffer (the "zero steady-state allocation" probe).
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);
  const std::vector sources{netlist::scenario_I()};
  const core::SpstaOptions opts;  // threads = 1

  const auto warm = core::run_spsta_numeric(n, d, sources, opts);
  stats::Workspace& ws = stats::Workspace::local();
  const std::uint64_t grows = ws.grows();
  const auto again = core::run_spsta_numeric(n, d, sources, opts);
  EXPECT_EQ(ws.grows(), grows);
  EXPECT_GT(ws.reuses(), 0u);
  expect_same_numeric(warm, again);
}

TEST(Determinism, MomentEngineIsThreadCountInvariant) {
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);
  const std::vector sources{netlist::scenario_I()};

  const core::SpstaResult base = core::run_spsta_moment(n, d, sources);
  for (unsigned threads : {2u, 8u}) {
    core::SpstaOptions opt;
    opt.threads = threads;
    const core::SpstaResult r = core::run_spsta_moment(n, d, sources, opt);
    ASSERT_EQ(r.node.size(), base.node.size());
    for (std::size_t id = 0; id < r.node.size(); ++id) {
      ASSERT_EQ(r.node[id].probs.pr, base.node[id].probs.pr);
      ASSERT_EQ(r.node[id].probs.pf, base.node[id].probs.pf);
      ASSERT_EQ(r.node[id].rise.mass, base.node[id].rise.mass);
      ASSERT_EQ(r.node[id].rise.arrival.mean, base.node[id].rise.arrival.mean);
      ASSERT_EQ(r.node[id].rise.arrival.var, base.node[id].rise.arrival.var);
      ASSERT_EQ(r.node[id].rise.third_central, base.node[id].rise.third_central);
      ASSERT_EQ(r.node[id].fall.mass, base.node[id].fall.mass);
      ASSERT_EQ(r.node[id].fall.arrival.mean, base.node[id].fall.arrival.mean);
      ASSERT_EQ(r.node[id].fall.arrival.var, base.node[id].fall.arrival.var);
      ASSERT_EQ(r.node[id].fall.third_central, base.node[id].fall.third_central);
    }
  }
}

TEST(Determinism, MetricsRecordingDoesNotPerturbAnyEngine) {
  // The observability layer is write-only from the engines' perspective:
  // stage timers and counters must not change a single result bit,
  // whether recording is on or off.
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);
  const std::vector sources{netlist::scenario_I()};
  core::SpstaOptions opt;
  opt.threads = 4;
  mc::MonteCarloConfig cfg;
  cfg.runs = 1000;
  cfg.seed = 11;
  cfg.threads = 4;

  obs::set_enabled(true);
  const core::SpstaResult moment_on = core::run_spsta_moment(n, d, sources, opt);
  const core::SpstaNumericResult numeric_on =
      core::run_spsta_numeric(n, d, sources, opt);
  const mc::MonteCarloResult mc_on = mc::run_monte_carlo(n, d, sources, cfg);

  obs::set_enabled(false);
  const core::SpstaResult moment_off = core::run_spsta_moment(n, d, sources, opt);
  const core::SpstaNumericResult numeric_off =
      core::run_spsta_numeric(n, d, sources, opt);
  const mc::MonteCarloResult mc_off = mc::run_monte_carlo(n, d, sources, cfg);
  obs::set_enabled(true);

  expect_same_numeric(numeric_on, numeric_off);
  expect_same_mc(mc_on, mc_off);
  ASSERT_EQ(moment_on.node.size(), moment_off.node.size());
  for (std::size_t id = 0; id < moment_on.node.size(); ++id) {
    ASSERT_EQ(moment_on.node[id].rise.arrival.mean,
              moment_off.node[id].rise.arrival.mean);
    ASSERT_EQ(moment_on.node[id].rise.arrival.var,
              moment_off.node[id].rise.arrival.var);
    ASSERT_EQ(moment_on.node[id].fall.arrival.mean,
              moment_off.node[id].fall.arrival.mean);
    ASSERT_EQ(moment_on.node[id].fall.arrival.var,
              moment_off.node[id].fall.arrival.var);
  }
}

TEST(Determinism, AnalyzerMatchesLegacyAtOneAndManyThreads) {
  // The acceptance criterion of the unified API: results through the
  // Analyzer facade (compiled plan, per-run pools) are bit-identical to
  // the legacy engine entry points at 1 and N threads. Repeated runs
  // over the same warm plan must not drift either.
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);
  const std::vector sources{netlist::scenario_I()};

  const core::SpstaResult legacy_moment = core::run_spsta_moment(n, d, sources);
  const core::SpstaNumericResult legacy_numeric =
      core::run_spsta_numeric(n, d, sources);
  mc::MonteCarloConfig cfg;
  cfg.runs = 1500;
  cfg.seed = 7;
  cfg.track_circuit_max = true;
  const mc::MonteCarloResult legacy_mc = mc::run_monte_carlo(n, d, sources, cfg);

  Analyzer analyzer(n, d, sources);
  for (const unsigned threads : {1u, 8u}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      AnalysisRequest request;
      request.threads = threads;

      request.engine = Engine::SpstaMoment;
      const AnalysisReport moment_report = analyzer.run(request);
      const core::SpstaResult& moment = moment_report.moment();
      ASSERT_EQ(moment.node.size(), legacy_moment.node.size());
      for (std::size_t id = 0; id < moment.node.size(); ++id) {
        ASSERT_EQ(moment.node[id].probs.pr, legacy_moment.node[id].probs.pr);
        ASSERT_EQ(moment.node[id].rise.mass, legacy_moment.node[id].rise.mass);
        ASSERT_EQ(moment.node[id].rise.arrival.mean,
                  legacy_moment.node[id].rise.arrival.mean);
        ASSERT_EQ(moment.node[id].rise.arrival.var,
                  legacy_moment.node[id].rise.arrival.var);
        ASSERT_EQ(moment.node[id].rise.third_central,
                  legacy_moment.node[id].rise.third_central);
        ASSERT_EQ(moment.node[id].fall.arrival.mean,
                  legacy_moment.node[id].fall.arrival.mean);
        ASSERT_EQ(moment.node[id].fall.arrival.var,
                  legacy_moment.node[id].fall.arrival.var);
      }

      request.engine = Engine::SpstaNumeric;
      const AnalysisReport numeric_report = analyzer.run(request);
      expect_same_numeric(numeric_report.numeric(), legacy_numeric);

      request.engine = Engine::Mc;
      request.runs = cfg.runs;
      request.seed = cfg.seed;
      request.track_circuit_max = true;
      const AnalysisReport mc_report = analyzer.run(request);
      expect_same_mc(mc_report.monte_carlo(), legacy_mc);
    }
  }
}

void expect_tops_equal(const std::vector<core::NodeTop>& a,
                       const std::vector<core::NodeTop>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].probs.pr, b[i].probs.pr);
    ASSERT_EQ(a[i].probs.pf, b[i].probs.pf);
    ASSERT_EQ(a[i].rise.mass, b[i].rise.mass);
    ASSERT_EQ(a[i].rise.arrival.mean, b[i].rise.arrival.mean);
    ASSERT_EQ(a[i].rise.arrival.var, b[i].rise.arrival.var);
    ASSERT_EQ(a[i].rise.third_central, b[i].rise.third_central);
    ASSERT_EQ(a[i].fall.mass, b[i].fall.mass);
    ASSERT_EQ(a[i].fall.arrival.mean, b[i].fall.arrival.mean);
    ASSERT_EQ(a[i].fall.arrival.var, b[i].fall.arrival.var);
    ASSERT_EQ(a[i].fall.third_central, b[i].fall.third_central);
  }
}

void expect_same_canonical(const core::SpstaCanonicalResult& a,
                           const core::SpstaCanonicalResult& b) {
  ASSERT_EQ(a.num_params, b.num_params);
  ASSERT_EQ(a.node.size(), b.node.size());
  const auto same_top = [](const core::CanonicalTop& x, const core::CanonicalTop& y) {
    ASSERT_EQ(x.mass, y.mass);
    ASSERT_EQ(x.arrival.nominal(), y.arrival.nominal());
    ASSERT_EQ(x.arrival.residual(), y.arrival.residual());
    const auto sx = x.arrival.sensitivities();
    const auto sy = y.arrival.sensitivities();
    ASSERT_EQ(std::vector(sx.begin(), sx.end()), std::vector(sy.begin(), sy.end()));
  };
  for (std::size_t id = 0; id < a.node.size(); ++id) {
    ASSERT_EQ(a.node[id].probs.pr, b.node[id].probs.pr);
    ASSERT_EQ(a.node[id].probs.pf, b.node[id].probs.pf);
    same_top(a.node[id].rise, b.node[id].rise);
    same_top(a.node[id].fall, b.node[id].fall);
  }
}

void expect_same_ssta(const ssta::SstaResult& a, const ssta::SstaResult& b) {
  ASSERT_EQ(a.arrival.size(), b.arrival.size());
  for (std::size_t id = 0; id < a.arrival.size(); ++id) {
    ASSERT_EQ(a.arrival[id].rise.mean, b.arrival[id].rise.mean);
    ASSERT_EQ(a.arrival[id].rise.var, b.arrival[id].rise.var);
    ASSERT_EQ(a.arrival[id].fall.mean, b.arrival[id].fall.mean);
    ASSERT_EQ(a.arrival[id].fall.var, b.arrival[id].fall.var);
  }
}

TEST(Determinism, EcoTransactionsProbesAndQueriesMatchFreshRuns) {
  // The incremental engine's in-place wave (DESIGN.md §17): an interleaved
  // sequence of batched transactions, what-if probes and point queries must
  // be bit-identical to fresh full runs — every probe to a run over that
  // round's delays plus its what-if edit, every query to a run over that
  // round's delays, and the final state to a run over the final delays
  // (probes must not have left a trace).
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel unit = netlist::DelayModel::unit(n);
  const std::vector sources{netlist::scenario_I()};
  const std::vector<NodeId> endpoints = n.timing_endpoints();

  std::vector<NodeId> gates;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (netlist::is_combinational(n.node(id).type)) gates.push_back(id);
  }

  core::CompiledDesign plan(n, unit);
  core::IncrementalSpsta inc(plan, sources, /*settle_eps=*/0.0);
  netlist::DelayModel committed = unit;
  for (int round = 0; round < 6; ++round) {
    inc.begin_eco();
    for (int k = 0; k < 8; ++k) {
      const NodeId g = gates[(round * 37 + k * 11) % gates.size()];
      const stats::Gaussian delay{1.0 + 0.1 * static_cast<double>(k + round), 0.0};
      inc.set_delay(g, delay);
      committed.set_delay(g, delay);
    }
    (void)inc.commit();
    const core::IncrementalSpsta::EcoEdit what_if =
        core::IncrementalSpsta::EcoEdit::delay_edit(
            gates[(round * 13) % gates.size()], {0.6, 0.0});
    const NodeId target = endpoints[round % endpoints.size()];
    const auto probe = inc.probe({&what_if, 1}, {&target, 1});
    netlist::DelayModel probed_delays = committed;
    probed_delays.set_delay(what_if.node, what_if.delay);
    expect_tops_equal({probe.tops.front()},
                      {core::run_spsta_moment(n, probed_delays, sources).node[target]});
    const NodeId queried = endpoints[(round * 5) % endpoints.size()];
    expect_tops_equal({inc.node(queried)},
                      {core::run_spsta_moment(n, committed, sources).node[queried]});
  }

  // Fresh full run over the final committed delays (probes must not have
  // left a trace): the plain model holds only the committed edits.
  expect_tops_equal(inc.flush(), core::run_spsta_moment(n, committed, sources).node);
}

TEST(Determinism, EveryEngineAfterSessionEcoMatchesAFreshAnalyzer) {
  // One owner for delay state (DESIGN.md §11, §17): after a Session script
  // of batched delay edits, source edits and probes — with numeric and MC
  // runs in between, so kernels or state kept from an earlier run would
  // show — every engine on the session's Analyzer, and the SSTA arrivals
  // the warm engine serves, are bit-identical to a fresh Analyzer built on
  // the final delays and sources, at 1, 2 and 8 threads.
  using EcoEdit = core::IncrementalSpsta::EcoEdit;
  const netlist::Netlist n = test_circuit();
  const std::vector<NodeId> endpoints = n.timing_endpoints();
  const std::size_t num_sources = n.timing_sources().size();
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (netlist::is_combinational(n.node(id).type)) gates.push_back(id);
  }

  for (const unsigned threads : {1u, 2u, 8u}) {
    service::Session session("det", n);
    const std::lock_guard<std::mutex> lock(session.mutex);
    netlist::DelayModel final_delays = netlist::DelayModel::unit(n);
    std::vector<netlist::SourceStats> final_sources(num_sources, netlist::scenario_I());

    AnalysisRequest request;
    request.threads = threads;
    for (int round = 0; round < 5; ++round) {
      // Run numeric or MC on the plan before each batch.
      request.engine = round % 2 == 0 ? Engine::SpstaNumeric : Engine::Mc;
      if (request.engine == Engine::Mc) {
        request.runs = 300;
        request.seed = 5;
      }
      (void)session.analyzer->run(request);
      request.runs.reset();
      request.seed.reset();

      std::vector<EcoEdit> batch;
      for (int k = 0; k < 6; ++k) {
        const NodeId g = gates[(round * 29 + k * 17) % gates.size()];
        const stats::Gaussian delay{0.8 + 0.1 * static_cast<double>(k + round),
                                    0.002 * static_cast<double>(k + 1)};
        batch.push_back(EcoEdit::delay_edit(g, delay));
        final_delays.set_delay(g, delay);
      }
      netlist::SourceStats source = round % 2 == 0 ? netlist::scenario_II()
                                                   : netlist::scenario_I();
      source.rise_arrival = {0.1 * round, 0.5};
      const std::size_t source_index = (round * 5) % num_sources;
      batch.push_back(EcoEdit::source_edit(source_index, source));
      final_sources[source_index] = source;
      (void)session.apply_eco(batch);

      const std::vector<EcoEdit> what_if{
          EcoEdit::delay_edit(gates[(round * 13) % gates.size()], {0.6, 0.01}),
          EcoEdit::source_edit((round + 1) % num_sources, netlist::scenario_II())};
      (void)session.probe_eco(what_if, endpoints);
      // The first SSTA read is the full pass; later rounds' reads and the
      // final one are cone updates over the edits in between.
      if (round % 2 == 1) (void)session.incremental->ssta();
    }
    // A variance-only edit of an unedited gate, below the largest sigma,
    // keeps the numeric grid unchanged: only kernels built from the current
    // delays keep the next numeric run off the old delay.
    request.engine = Engine::SpstaNumeric;
    (void)session.analyzer->run(request);
    NodeId quiet = netlist::kInvalidNode;
    for (const NodeId g : gates) {
      if (final_delays.delay(g).var == 0.0) quiet = g;
    }
    ASSERT_NE(quiet, netlist::kInvalidNode);
    final_delays.set_delay(quiet, {1.0, 0.001});
    const core::IncrementalSpsta::EcoEdit edit =
        core::IncrementalSpsta::EcoEdit::delay_edit(quiet, {1.0, 0.001});
    (void)session.apply_eco({&edit, 1});

    Analyzer fresh(n, final_delays, final_sources);
    ASSERT_EQ(session.analyzer->content_hash(), fresh.content_hash());
    expect_tops_equal(session.incremental->flush(),
                      core::run_spsta_moment(fresh.plan(), final_sources).node);
    EXPECT_GT(session.incremental->ssta_reevaluated(), 0u);
    expect_same_ssta(ssta::SstaResult{session.incremental->ssta()},
                     ssta::run_ssta(fresh.plan(), final_sources));
    for (const Engine engine : {Engine::SpstaMoment, Engine::SpstaNumeric,
                                Engine::Canonical, Engine::Ssta, Engine::Mc}) {
      AnalysisRequest r;
      r.engine = engine;
      r.threads = threads;
      if (engine == Engine::Mc) {
        r.runs = 1000;
        r.seed = 2026;
        r.track_circuit_max = true;
      }
      const AnalysisReport got = session.analyzer->run(r);
      const AnalysisReport want = fresh.run(r);
      switch (engine) {
        case Engine::SpstaMoment:
          expect_tops_equal(got.moment().node, want.moment().node);
          break;
        case Engine::SpstaNumeric:
          expect_same_numeric(got.numeric(), want.numeric());
          break;
        case Engine::Canonical:
          expect_same_canonical(got.canonical(), want.canonical());
          break;
        case Engine::Ssta:
          expect_same_ssta(got.ssta(), want.ssta());
          break;
        case Engine::Mc:
          expect_same_mc(got.monte_carlo(), want.monte_carlo());
          break;
      }
    }
  }
}

TEST(Determinism, ConcurrentAnalyzerRunsMatchSerialRuns) {
  // Analyzer::run is safe to call concurrently (spsta_api.hpp): runs only
  // read the plan and sources, and each owns its pool and kernels. Two
  // threads run moment, numeric and MC on one Analyzer at 2 threads each;
  // every result is bit-identical to the same request run serially.
  const netlist::Netlist n = test_circuit();
  Analyzer analyzer(n, netlist::DelayModel::gaussian(n, 1.0, 0.05),
                    {netlist::scenario_I()});
  std::vector<AnalysisRequest> requests(3);
  requests[0].engine = Engine::SpstaMoment;
  requests[1].engine = Engine::SpstaNumeric;
  requests[2].engine = Engine::Mc;
  requests[2].runs = 1000;
  requests[2].seed = 11;
  for (AnalysisRequest& r : requests) r.threads = 2;

  std::vector<AnalysisReport> serial;
  for (const AnalysisRequest& r : requests) serial.push_back(analyzer.run(r));

  constexpr std::size_t kCallers = 2;
  std::vector<std::vector<AnalysisReport>> concurrent(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&analyzer, &requests, &out = concurrent[c]] {
      for (const AnalysisRequest& r : requests) out.push_back(analyzer.run(r));
    });
  }
  for (std::thread& t : callers) t.join();

  for (const std::vector<AnalysisReport>& got : concurrent) {
    ASSERT_EQ(got.size(), serial.size());
    expect_tops_equal(got[0].moment().node, serial[0].moment().node);
    expect_same_numeric(got[1].numeric(), serial[1].numeric());
    expect_same_mc(got[2].monte_carlo(), serial[2].monte_carlo());
  }
}

}  // namespace
}  // namespace spsta
