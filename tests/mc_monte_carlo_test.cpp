// Tests for the Monte Carlo driver: determinism, convergence of source
// statistics, agreement with analytic four-value propagation, and bitwise
// equality of the 64-run block engine with a run-at-a-time reference.

#include "mc/monte_carlo.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "core/compiled_design.hpp"
#include "mc/logic_sim.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas89.hpp"
#include "sigprob/four_value_prop.hpp"
#include "stats/rng.hpp"

namespace spsta::mc {
namespace {

using netlist::FourValueProbs;
using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

TEST(MonteCarlo, DeterministicForSameSeed) {
  const Netlist n = netlist::make_s27();
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  MonteCarloConfig cfg;
  cfg.runs = 500;
  cfg.seed = 11;
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  const MonteCarloResult a = run_monte_carlo(n, d, sc, cfg);
  const MonteCarloResult b = run_monte_carlo(n, d, sc, cfg);
  for (NodeId id = 0; id < n.node_count(); ++id) {
    EXPECT_EQ(a.node[id].count[2], b.node[id].count[2]);
    EXPECT_DOUBLE_EQ(a.node[id].rise_time.mean(), b.node[id].rise_time.mean());
  }
}

TEST(MonteCarlo, SourceStatisticsConverge) {
  const Netlist n = netlist::make_s27();
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  MonteCarloConfig cfg;
  cfg.runs = 20000;
  cfg.seed = 3;
  const netlist::SourceStats sc = netlist::scenario_II();
  const MonteCarloResult r = run_monte_carlo(n, d, std::vector{sc}, cfg);

  for (NodeId src : n.timing_sources()) {
    const FourValueProbs p = r.node[src].probs();
    EXPECT_NEAR(p.p0, 0.75, 0.02);
    EXPECT_NEAR(p.p1, 0.15, 0.02);
    EXPECT_NEAR(p.pr, 0.02, 0.01);
    EXPECT_NEAR(p.pf, 0.08, 0.01);
    // Rise arrivals sample N(0,1).
    if (r.node[src].rise_time.count() > 100) {
      EXPECT_NEAR(r.node[src].rise_time.mean(), 0.0, 0.15);
      EXPECT_NEAR(r.node[src].rise_time.stddev(), 1.0, 0.15);
    }
  }
}

TEST(MonteCarlo, MatchesAnalyticFourValueOnTree) {
  // On a reconvergence-free circuit the analytic four-value probabilities
  // are exact, so MC must converge to them.
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId c = n.add_input("c");
  const NodeId g1 = n.add_gate(GateType::Nand, "g1", {a, b});
  const NodeId g2 = n.add_gate(GateType::Or, "g2", {g1, c});
  n.mark_output(g2);

  const netlist::SourceStats sc = netlist::scenario_I();
  MonteCarloConfig cfg;
  cfg.runs = 40000;
  cfg.seed = 7;
  const MonteCarloResult r =
      run_monte_carlo(n, netlist::DelayModel::unit(n), std::vector{sc}, cfg);
  const auto analytic = sigprob::propagate_four_value(n, std::vector{sc.probs});

  for (NodeId id : {g1, g2}) {
    const FourValueProbs mc_p = r.node[id].probs();
    EXPECT_NEAR(mc_p.p0, analytic[id].p0, 0.01) << n.node(id).name;
    EXPECT_NEAR(mc_p.p1, analytic[id].p1, 0.01);
    EXPECT_NEAR(mc_p.pr, analytic[id].pr, 0.01);
    EXPECT_NEAR(mc_p.pf, analytic[id].pf, 0.01);
  }
}

TEST(MonteCarlo, SingleAndGateArrivalMoments) {
  // AND with always-rising inputs: output arrival = max of two N(0,1) + 1.
  Netlist n;
  const NodeId a = n.add_input("a");
  const NodeId b = n.add_input("b");
  const NodeId y = n.add_gate(GateType::And, "y", {a, b});
  n.mark_output(y);

  netlist::SourceStats sc;
  sc.probs = {0.0, 0.0, 1.0, 0.0};  // always rise
  MonteCarloConfig cfg;
  cfg.runs = 60000;
  cfg.seed = 9;
  const MonteCarloResult r =
      run_monte_carlo(n, netlist::DelayModel::unit(n), std::vector{sc}, cfg);
  EXPECT_NEAR(r.node[y].probs().pr, 1.0, 1e-12);
  EXPECT_NEAR(r.node[y].rise_time.mean(), 1.0 / std::sqrt(M_PI) + 1.0, 0.02);
  EXPECT_NEAR(r.node[y].rise_time.stddev(), std::sqrt(1.0 - 1.0 / M_PI), 0.02);
}

TEST(MonteCarlo, VariationalDelaysWidenSpread) {
  Netlist n;
  NodeId prev = n.add_input("a");
  for (int i = 0; i < 4; ++i) {
    prev = n.add_gate(GateType::Buf, "b" + std::to_string(i), {prev});
  }
  n.mark_output(prev);

  netlist::SourceStats sc;
  sc.probs = {0.0, 0.0, 1.0, 0.0};
  sc.rise_arrival = {0.0, 0.0};  // deterministic launch

  MonteCarloConfig cfg;
  cfg.runs = 20000;
  cfg.seed = 13;
  const MonteCarloResult fixed = run_monte_carlo(
      n, netlist::DelayModel::unit(n), std::vector{sc}, cfg);
  const MonteCarloResult varied = run_monte_carlo(
      n, netlist::DelayModel::gaussian(n, 1.0, 0.2), std::vector{sc}, cfg);

  EXPECT_NEAR(fixed.node[prev].rise_time.mean(), 4.0, 1e-9);
  EXPECT_NEAR(fixed.node[prev].rise_time.stddev(), 0.0, 1e-9);
  EXPECT_NEAR(varied.node[prev].rise_time.mean(), 4.0, 0.02);
  EXPECT_NEAR(varied.node[prev].rise_time.stddev(), 0.2 * 2.0, 0.02);  // sqrt(4)*0.2
}

TEST(MonteCarlo, HistogramCollectsRiseArrivals) {
  const Netlist n = netlist::make_s27();
  MonteCarloConfig cfg;
  cfg.runs = 2000;
  cfg.seed = 21;
  cfg.histogram_node = n.primary_outputs()[0];
  const MonteCarloResult r = run_monte_carlo(n, netlist::DelayModel::unit(n),
                                             std::vector{netlist::scenario_I()}, cfg);
  ASSERT_TRUE(r.histogram.has_value());
  EXPECT_EQ(r.histogram->total(),
            r.node[*cfg.histogram_node].count[static_cast<int>(netlist::FourValue::Rise)]);
}

TEST(MonteCarlo, GlitchesObservedOnSuiteCircuit) {
  const Netlist n = netlist::make_paper_circuit("s298");
  MonteCarloConfig cfg;
  cfg.runs = 1000;
  cfg.seed = 2;
  const MonteCarloResult r = run_monte_carlo(n, netlist::DelayModel::unit(n),
                                             std::vector{netlist::scenario_I()}, cfg);
  EXPECT_GT(r.glitching_gates, 0u);
}

TEST(MonteCarlo, ZeroSampleEstimateIsUninformativeUniform) {
  // Regression: with no samples probs() used to report a confident
  // "P0 = 1", which scored phantom agreement against analytic engines on
  // never-simulated nodes. No data means the uniform estimate.
  const NodeEstimate empty;
  const netlist::FourValueProbs p = empty.probs();
  EXPECT_DOUBLE_EQ(p.p0, 0.25);
  EXPECT_DOUBLE_EQ(p.p1, 0.25);
  EXPECT_DOUBLE_EQ(p.pr, 0.25);
  EXPECT_DOUBLE_EQ(p.pf, 0.25);
  EXPECT_DOUBLE_EQ(empty.rise_probability(), 0.0);
  EXPECT_DOUBLE_EQ(empty.fall_probability(), 0.0);
  EXPECT_DOUBLE_EQ(empty.raw_edge_rate(), 0.0);
}

TEST(MonteCarlo, ZeroRunsYieldUniformEstimates) {
  const Netlist n = netlist::make_s27();
  MonteCarloConfig cfg;
  cfg.runs = 0;
  const MonteCarloResult r = run_monte_carlo(n, netlist::DelayModel::unit(n),
                                             std::vector{netlist::scenario_I()}, cfg);
  for (const NodeEstimate& est : r.node) {
    EXPECT_DOUBLE_EQ(est.probs().p0, 0.25);
    EXPECT_DOUBLE_EQ(est.probs().pr, 0.25);
  }
}

// ---------------------------------------------------------------------------
// Block engine == run-at-a-time reference, bit for bit.

/// The run-at-a-time Monte Carlo driver: one simulate_once per run, each
/// run drawing from its own (seed, run) stream, accumulated chunk by chunk
/// in run_monte_carlo's chunk layout and merged in chunk order.
MonteCarloResult reference_monte_carlo(const netlist::Netlist& design,
                                       const netlist::DelayModel& delays,
                                       std::span<const netlist::SourceStats> source_stats,
                                       const MonteCarloConfig& config) {
  const std::vector<NodeId> sources = design.timing_sources();
  const std::vector<NodeId> endpoints = design.timing_endpoints();
  const netlist::Levelization levels = netlist::levelize(design);
  const std::size_t node_count = design.node_count();
  bool delays_fixed = true;
  std::vector<double> rise_delays(node_count);
  std::vector<double> fall_delays(node_count);
  for (NodeId id = 0; id < node_count; ++id) {
    rise_delays[id] = delays.delay(id, true).mean;
    fall_delays[id] = delays.delay(id, false).mean;
    if (delays.delay(id, true).var > 0.0 || delays.delay(id, false).var > 0.0) {
      delays_fixed = false;
    }
  }

  MonteCarloResult result;
  result.node.resize(node_count);
  result.runs = config.runs;
  if (config.histogram_node) {
    result.histogram.emplace(config.histogram_lo, config.histogram_hi,
                             config.histogram_bins);
  }
  const std::uint64_t chunk_runs = std::max<std::uint64_t>(256, (config.runs + 31) / 32);
  for (std::uint64_t first = 0; first < config.runs; first += chunk_runs) {
    MonteCarloResult part;
    part.node.resize(node_count);
    if (config.histogram_node) {
      part.histogram.emplace(config.histogram_lo, config.histogram_hi,
                             config.histogram_bins);
    }
    std::vector<std::uint32_t> raw;
    for (std::uint64_t run = first; run < std::min(config.runs, first + chunk_runs); ++run) {
      stats::Xoshiro256 rng = stats::Xoshiro256::for_stream(config.seed, run);
      std::vector<SimValue> source_values(sources.size());
      for (std::size_t i = 0; i < sources.size(); ++i) {
        const netlist::SourceStats& st =
            source_stats.size() == 1 ? source_stats[0] : source_stats[i];
        const std::array<double, 4> w{st.probs.p0, st.probs.p1, st.probs.pr, st.probs.pf};
        source_values[i].value = static_cast<netlist::FourValue>(rng.categorical(w));
        if (source_values[i].value == netlist::FourValue::Rise) {
          source_values[i].time = rng.normal(st.rise_arrival.mean, st.rise_arrival.stddev());
        } else if (source_values[i].value == netlist::FourValue::Fall) {
          source_values[i].time = rng.normal(st.fall_arrival.mean, st.fall_arrival.stddev());
        }
      }
      if (!delays_fixed) {
        for (NodeId id = 0; id < node_count; ++id) {
          const stats::Gaussian& dr = delays.delay(id, true);
          const stats::Gaussian& df = delays.delay(id, false);
          rise_delays[id] = dr.var > 0.0 ? rng.normal(dr.mean, dr.stddev()) : dr.mean;
          fall_delays[id] = df.var > 0.0 ? rng.normal(df.mean, df.stddev()) : df.mean;
        }
      }
      SimRunStats run_stats;
      const std::vector<SimValue> value = simulate_once(
          design, levels, source_values, rise_delays, fall_delays, &run_stats, &raw);
      part.glitching_gates += run_stats.glitching_gates;
      for (NodeId id = 0; id < node_count; ++id) {
        NodeEstimate& est = part.node[id];
        ++est.count[static_cast<int>(value[id].value)];
        est.raw_edges += raw[id];
        if (value[id].value == netlist::FourValue::Rise) est.rise_time.add(value[id].time);
        if (value[id].value == netlist::FourValue::Fall) est.fall_time.add(value[id].time);
      }
      if (part.histogram && value[*config.histogram_node].value == netlist::FourValue::Rise) {
        part.histogram->add(value[*config.histogram_node].time);
      }
      if (config.track_circuit_max) {
        bool any = false;
        double latest = 0.0;
        for (NodeId ep : endpoints) {
          const netlist::FourValue v = value[ep].value;
          if (v != netlist::FourValue::Rise && v != netlist::FourValue::Fall) continue;
          if (!any || value[ep].time > latest) latest = value[ep].time;
          any = true;
        }
        if (any) {
          part.circuit_max.add(latest);
          part.circuit_max_samples.push_back(latest);
        } else {
          ++part.quiet_runs;
        }
      }
    }
    for (NodeId id = 0; id < node_count; ++id) {
      NodeEstimate& est = result.node[id];
      for (int v = 0; v < 4; ++v) est.count[v] += part.node[id].count[v];
      est.raw_edges += part.node[id].raw_edges;
      est.rise_time.merge(part.node[id].rise_time);
      est.fall_time.merge(part.node[id].fall_time);
    }
    result.glitching_gates += part.glitching_gates;
    if (result.histogram) result.histogram->merge(*part.histogram);
    result.circuit_max.merge(part.circuit_max);
    result.quiet_runs += part.quiet_runs;
    result.circuit_max_samples.insert(result.circuit_max_samples.end(),
                                      part.circuit_max_samples.begin(),
                                      part.circuit_max_samples.end());
  }
  std::sort(result.circuit_max_samples.begin(), result.circuit_max_samples.end());
  return result;
}

template <class T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Every output field compared on its memory, not on its value.
void expect_bitwise_equal(const MonteCarloResult& want, const MonteCarloResult& got,
                          const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(want.runs, got.runs);
  ASSERT_EQ(want.node.size(), got.node.size());
  for (std::size_t id = 0; id < want.node.size(); ++id) {
    const NodeEstimate& a = want.node[id];
    const NodeEstimate& b = got.node[id];
    ASSERT_EQ(std::memcmp(a.count, b.count, sizeof(a.count)), 0) << "count, node " << id;
    ASSERT_EQ(a.raw_edges, b.raw_edges) << "node " << id;
    ASSERT_TRUE(same_bits(a.rise_time, b.rise_time)) << "rise_time, node " << id;
    ASSERT_TRUE(same_bits(a.fall_time, b.fall_time)) << "fall_time, node " << id;
  }
  EXPECT_EQ(want.glitching_gates, got.glitching_gates);
  ASSERT_EQ(want.histogram.has_value(), got.histogram.has_value());
  if (want.histogram) {
    EXPECT_EQ(want.histogram->total(), got.histogram->total());
    EXPECT_EQ(want.histogram->underflow(), got.histogram->underflow());
    EXPECT_EQ(want.histogram->overflow(), got.histogram->overflow());
    ASSERT_EQ(want.histogram->bins(), got.histogram->bins());
    for (std::size_t bin = 0; bin < want.histogram->bins(); ++bin) {
      EXPECT_EQ(want.histogram->count(bin), got.histogram->count(bin)) << "bin " << bin;
    }
  }
  EXPECT_TRUE(same_bits(want.circuit_max, got.circuit_max));
  EXPECT_EQ(want.quiet_runs, got.quiet_runs);
  ASSERT_EQ(want.circuit_max_samples.size(), got.circuit_max_samples.size());
  EXPECT_TRUE(std::equal(want.circuit_max_samples.begin(), want.circuit_max_samples.end(),
                         got.circuit_max_samples.begin(), same_bits<double>));
}

/// Runs the engine at 1, 2 and 8 threads and compares each with the
/// reference.
void expect_engine_matches_reference(const Netlist& n, const netlist::DelayModel& d,
                                     const std::vector<netlist::SourceStats>& sources,
                                     MonteCarloConfig cfg, const std::string& what) {
  const MonteCarloResult want = reference_monte_carlo(n, d, sources, cfg);
  const core::CompiledDesign plan(n, d);
  for (const unsigned threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    expect_bitwise_equal(want, run_monte_carlo(plan, sources, cfg),
                         what + ", threads=" + std::to_string(threads));
  }
}

/// Sources whose transitions all launch at t = 0: with unit delays every
/// arrival is an integer, so simultaneous input events are the rule and
/// the tie order of every gate rule is exercised.
netlist::SourceStats tied_launch() {
  netlist::SourceStats st;
  st.rise_arrival = {0.0, 0.0};
  st.fall_arrival = {0.0, 0.0};
  return st;
}

/// A generated circuit with every gate family plus the corner cases of the
/// block engine: constants, one-input AND/OR/XOR, repeated fanins, and
/// wide gates (17- and 20-input).
Netlist every_gate_circuit(std::uint64_t seed) {
  netlist::GeneratorSpec spec;
  spec.name = "every_gate";
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_dffs = 4;
  spec.num_gates = 160;
  spec.target_depth = 9;
  spec.seed = seed;
  spec.max_fanin = 5;
  spec.weight_xor = 1.5;
  spec.weight_xnor = 1.0;
  Netlist n = netlist::generate_circuit(spec);
  const std::size_t base = n.node_count();
  const auto pick = [&](std::size_t k) { return static_cast<NodeId>((k * 37 + 11) % base); };
  const NodeId c0 = n.add_gate(GateType::Const0, "k0", {});
  const NodeId c1 = n.add_gate(GateType::Const1, "k1", {});
  std::vector<NodeId> wide;
  for (std::size_t k = 0; k < 20; ++k) wide.push_back(pick(k));
  const std::vector<NodeId> wide17(wide.begin(), wide.begin() + 17);
  const std::vector<NodeId> extra{
      n.add_gate(GateType::And, "x_and1", {pick(1)}),
      n.add_gate(GateType::Or, "x_or1", {pick(2)}),
      n.add_gate(GateType::Xnor, "x_xnor1", {pick(3)}),
      n.add_gate(GateType::Nand, "x_nand_c1", {pick(4), c1, pick(5)}),
      n.add_gate(GateType::Nor, "x_nor_c0", {c0, pick(6)}),
      n.add_gate(GateType::And, "x_and_c0", {pick(7), c0}),
      n.add_gate(GateType::Xor, "x_xor_c1", {c1, pick(8), pick(9)}),
      n.add_gate(GateType::And, "x_and_dup", {pick(10), pick(10), pick(11)}),
      n.add_gate(GateType::Xor, "x_xor_dup", {pick(12), pick(12)}),
      n.add_gate(GateType::And, "x_and20", wide),
      n.add_gate(GateType::Nor, "x_nor17", wide17),
      n.add_gate(GateType::Xor, "x_xor20", wide),
      n.add_gate(GateType::Not, "x_not_c1", {c1}),
      n.add_gate(GateType::Buf, "x_buf", {pick(13)}),
  };
  for (NodeId id : extra) n.mark_output(id);
  n.mark_output(n.add_gate(GateType::Or, "x_or_extra", extra));
  return n;
}

/// Gaussian delays with per-direction overrides on every third gate, half
/// of them variational — the directional delay model.
netlist::DelayModel directional_delays(const Netlist& n) {
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (!netlist::is_combinational(n.node(id).type) || id % 3 != 0) continue;
    d.set_rise_delay(id, {1.25, id % 2 == 0 ? 0.04 : 0.0});
    d.set_fall_delay(id, {0.75, 0.0});
  }
  return d;
}

TEST(MonteCarloBlockEngine, PaperSuiteMatchesReferenceBitwise) {
  const std::array<std::pair<const char*, netlist::SourceStats>, 2> scenarios{
      {{"I", netlist::scenario_I()}, {"II", netlist::scenario_II()}}};
  for (std::string_view name : netlist::paper_circuit_names()) {
    const Netlist n = netlist::make_paper_circuit(name);
    const netlist::DelayModel d = netlist::DelayModel::unit(n);
    for (const auto& [label, sc] : scenarios) {
      MonteCarloConfig cfg;
      cfg.runs = 2000;
      cfg.seed = 5;
      cfg.track_circuit_max = true;
      cfg.histogram_node = n.timing_endpoints().front();
      expect_engine_matches_reference(n, d, {sc}, cfg,
                                       std::string(name) + " scenario " + label);
    }
  }
}

TEST(MonteCarloBlockEngine, RunCountsAroundBlockAndChunkEdges) {
  const Netlist n = every_gate_circuit(3);
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  for (const std::uint64_t runs : {0u, 1u, 63u, 64u, 65u, 257u, 10000u}) {
    MonteCarloConfig cfg;
    cfg.runs = runs;
    cfg.seed = 17;
    cfg.track_circuit_max = true;
    cfg.histogram_node = n.timing_endpoints().back();
    expect_engine_matches_reference(n, d, {netlist::scenario_I()}, cfg,
                                    "runs=" + std::to_string(runs));
  }
}

TEST(MonteCarloBlockEngine, EveryGateFamilyUnderEveryDelayModel) {
  for (const std::uint64_t seed : {1u, 2u}) {
    const Netlist n = every_gate_circuit(seed);
    const std::array<std::pair<const char*, netlist::DelayModel>, 3> models{
        {{"unit", netlist::DelayModel::unit(n)},
         {"gaussian", netlist::DelayModel::gaussian(n, 1.0, 0.2)},
         {"directional", directional_delays(n)}}};
    const std::array<std::pair<const char*, netlist::SourceStats>, 3> scenarios{
        {{"I", netlist::scenario_I()},
         {"II", netlist::scenario_II()},
         {"tied", tied_launch()}}};
    for (const auto& [model, d] : models) {
      for (const auto& [label, sc] : scenarios) {
        MonteCarloConfig cfg;
        cfg.runs = 700;
        cfg.seed = 40 + seed;
        cfg.track_circuit_max = true;
        cfg.histogram_node = n.timing_endpoints().front();
        expect_engine_matches_reference(n, d, {sc}, cfg,
                                        "seed " + std::to_string(seed) + ", " + model +
                                            " delays, scenario " + label);
      }
    }
  }
}

TEST(MonteCarloBlockEngine, PerSourceStatisticsMatchReference) {
  const Netlist n = every_gate_circuit(4);
  std::vector<netlist::SourceStats> sources(n.timing_sources().size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    sources[i] = i % 3 == 0 ? tied_launch()
                 : i % 3 == 1 ? netlist::scenario_I()
                              : netlist::scenario_II();
  }
  MonteCarloConfig cfg;
  cfg.runs = 1000;
  cfg.seed = 8;
  cfg.track_circuit_max = true;
  expect_engine_matches_reference(n, netlist::DelayModel::gaussian(n, 1.0, 0.1), sources,
                                  cfg, "per-source statistics");
}

/// A source that always takes \p v, launching its transition at t = 0.
netlist::SourceStats fixed_source(netlist::FourValue v) {
  netlist::SourceStats st = tied_launch();
  st.probs = {v == netlist::FourValue::Zero ? 1.0 : 0.0,
              v == netlist::FourValue::One ? 1.0 : 0.0,
              v == netlist::FourValue::Rise ? 1.0 : 0.0,
              v == netlist::FourValue::Fall ? 1.0 : 0.0};
  return st;
}

TEST(MonteCarloBlockEngine, TiedMixedDirectionLanesPulseInInputOrder) {
  using netlist::FourValue;
  // Every run: `up` and `down` move away from and toward each gate's
  // controlling value at the same instant; `idle` holds the
  // non-controlling value. The gate pulses iff the input moving away
  // comes first in fanin order, at fanin 2 and at fanin 17.
  struct Family {
    GateType type;
    FourValue away, toward, idle, settled;
  };
  const std::array<Family, 4> families{{
      {GateType::And, FourValue::Rise, FourValue::Fall, FourValue::One, FourValue::Zero},
      {GateType::Nand, FourValue::Rise, FourValue::Fall, FourValue::One, FourValue::One},
      {GateType::Or, FourValue::Fall, FourValue::Rise, FourValue::Zero, FourValue::One},
      {GateType::Nor, FourValue::Fall, FourValue::Rise, FourValue::Zero, FourValue::Zero},
  }};
  for (const Family& fam : families) {
    Netlist n("tied_mixed");
    const NodeId up = n.add_input("up");
    const NodeId down = n.add_input("down");
    const NodeId idle = n.add_input("idle");
    const std::vector<netlist::SourceStats> sources{
        fixed_source(fam.away), fixed_source(fam.toward), fixed_source(fam.idle)};
    const std::vector<NodeId> pad(15, idle);
    std::vector<NodeId> wide_up_first{up};
    wide_up_first.insert(wide_up_first.end(), pad.begin(), pad.end());
    wide_up_first.push_back(down);
    std::vector<NodeId> wide_down_first(pad.begin(), pad.begin() + 7);
    wide_down_first.push_back(down);
    wide_down_first.insert(wide_down_first.end(), pad.begin() + 7, pad.end());
    wide_down_first.push_back(up);
    const std::array<std::pair<NodeId, bool>, 4> gates{{
        {n.add_gate(fam.type, "g_up_down", {up, down}), true},
        {n.add_gate(fam.type, "g_down_up", {down, up}), false},
        {n.add_gate(fam.type, "g_wide_up_first", wide_up_first), true},
        {n.add_gate(fam.type, "g_wide_down_first", wide_down_first), false},
    }};
    for (const auto& [g, pulses] : gates) n.mark_output(g);

    MonteCarloConfig cfg;
    cfg.runs = 130;
    cfg.seed = 2;
    cfg.track_circuit_max = true;
    const std::string what(netlist::to_string(fam.type));
    expect_engine_matches_reference(n, netlist::DelayModel::unit(n), sources, cfg, what);
    const MonteCarloResult r =
        run_monte_carlo(n, netlist::DelayModel::unit(n), sources, cfg);
    for (const auto& [g, pulses] : gates) {
      SCOPED_TRACE(what + " " + n.node(g).name);
      EXPECT_EQ(r.node[g].count[static_cast<int>(fam.settled)], cfg.runs);
      EXPECT_EQ(r.node[g].raw_edges, pulses ? 2 * cfg.runs : 0u);
    }
    EXPECT_EQ(r.glitching_gates, 2 * cfg.runs);
  }
}

TEST(MonteCarloBlockEngine, SixtyFourInputsMatchReferenceAndWiderThrows) {
  const Netlist base = every_gate_circuit(5);
  const std::size_t count = base.node_count();
  const auto widest = [&](std::size_t fanin) {
    Netlist n = base;
    std::vector<NodeId> ins;
    for (std::size_t k = 0; k < fanin; ++k) {
      ins.push_back(static_cast<NodeId>((k * 13 + 5) % count));
    }
    n.mark_output(n.add_gate(GateType::Nand, "x_nand_wide", ins));
    n.mark_output(n.add_gate(GateType::Xor, "x_xor_wide", ins));
    return n;
  };
  MonteCarloConfig cfg;
  cfg.runs = 200;
  cfg.seed = 9;
  const Netlist ok = widest(64);
  expect_engine_matches_reference(ok, netlist::DelayModel::unit(ok),
                                  {netlist::scenario_I()}, cfg, "fanin 64");
  const Netlist wide = widest(65);
  EXPECT_THROW((void)run_monte_carlo(wide, netlist::DelayModel::unit(wide),
                                     std::vector{netlist::scenario_I()}, cfg),
               std::invalid_argument);
  EXPECT_THROW((void)reference_monte_carlo(wide, netlist::DelayModel::unit(wide),
                                           std::vector{netlist::scenario_I()}, cfg),
               std::invalid_argument);
}

TEST(MonteCarlo, SourceStatsMismatchThrows) {
  const Netlist n = netlist::make_s27();
  MonteCarloConfig cfg;
  cfg.runs = 10;
  EXPECT_THROW((void)run_monte_carlo(n, netlist::DelayModel::unit(n),
                                     std::vector<netlist::SourceStats>(2), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace spsta::mc
