// CompiledDesign contract: the compiled overload of every engine is
// bit-identical to the legacy compile-per-call overload, the plan's
// precomputed structure reproduces what the engines used to derive per
// run, one plan is safe to share across threads, and the content hash
// tracks exactly the (netlist, delay model) inputs. Every comparison is
// exact double equality — same contract as determinism_test.cpp.

#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_design.hpp"
#include "core/incremental_spsta.hpp"
#include "core/spsta.hpp"
#include "core/spsta_canonical.hpp"
#include "mc/monte_carlo.hpp"
#include "netlist/generator.hpp"
#include "netlist/graph.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "ssta/path_ssta.hpp"
#include "ssta/ssta.hpp"

namespace spsta {
namespace {

using netlist::NodeId;

/// Same generated circuit the determinism suite uses: reconvergent
/// fanout, depth 8, enough gates for multi-level dispatch.
netlist::Netlist test_circuit(std::uint64_t seed = 42) {
  netlist::GeneratorSpec spec;
  spec.name = "plan";
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 120;
  spec.target_depth = 8;
  spec.seed = seed;
  return netlist::generate_circuit(spec);
}

void expect_same_moment(const core::SpstaResult& a, const core::SpstaResult& b) {
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t id = 0; id < a.node.size(); ++id) {
    ASSERT_EQ(a.node[id].probs.p0, b.node[id].probs.p0);
    ASSERT_EQ(a.node[id].probs.p1, b.node[id].probs.p1);
    ASSERT_EQ(a.node[id].probs.pr, b.node[id].probs.pr);
    ASSERT_EQ(a.node[id].probs.pf, b.node[id].probs.pf);
    for (const auto dir : {&core::NodeTop::rise, &core::NodeTop::fall}) {
      const core::TransitionTop& ta = a.node[id].*dir;
      const core::TransitionTop& tb = b.node[id].*dir;
      ASSERT_EQ(ta.mass, tb.mass);
      ASSERT_EQ(ta.arrival.mean, tb.arrival.mean);
      ASSERT_EQ(ta.arrival.var, tb.arrival.var);
      ASSERT_EQ(ta.third_central, tb.third_central);
    }
  }
}

void expect_same_numeric(const core::SpstaNumericResult& a,
                         const core::SpstaNumericResult& b) {
  ASSERT_EQ(a.grid, b.grid);
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t id = 0; id < a.node.size(); ++id) {
    ASSERT_EQ(a.node[id].probs.p0, b.node[id].probs.p0);
    ASSERT_EQ(a.node[id].probs.pr, b.node[id].probs.pr);
    const std::vector<double> ar(a.node[id].rise.values().begin(),
                                 a.node[id].rise.values().end());
    const std::vector<double> br(b.node[id].rise.values().begin(),
                                 b.node[id].rise.values().end());
    ASSERT_EQ(ar, br);
    const std::vector<double> af(a.node[id].fall.values().begin(),
                                 a.node[id].fall.values().end());
    const std::vector<double> bf(b.node[id].fall.values().begin(),
                                 b.node[id].fall.values().end());
    ASSERT_EQ(af, bf);
  }
}

// The compiled overload of every engine must equal its legacy
// compile-per-call overload bit for bit — warm structural reuse is an
// optimization, never a result change.
TEST(CompiledDesign, CompiledOverloadsMatchLegacyBitForBit) {
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);
  const std::vector sources{netlist::scenario_I()};
  const core::CompiledDesign plan(n, d);

  expect_same_moment(core::run_spsta_moment(plan, sources),
                     core::run_spsta_moment(n, d, sources));
  expect_same_numeric(core::run_spsta_numeric(plan, sources),
                      core::run_spsta_numeric(n, d, sources));

  const core::SpstaCanonicalResult ca = core::run_spsta_canonical(plan, sources);
  const core::SpstaCanonicalResult cb = core::run_spsta_canonical(n, d, sources);
  ASSERT_EQ(ca.num_params, cb.num_params);
  ASSERT_EQ(ca.node.size(), cb.node.size());
  for (std::size_t id = 0; id < ca.node.size(); ++id) {
    for (const auto dir :
         {&core::NodeCanonicalTop::rise, &core::NodeCanonicalTop::fall}) {
      const core::CanonicalTop& ta = ca.node[id].*dir;
      const core::CanonicalTop& tb = cb.node[id].*dir;
      ASSERT_EQ(ta.mass, tb.mass);
      ASSERT_EQ(ta.arrival.nominal(), tb.arrival.nominal());
      ASSERT_EQ(ta.arrival.residual(), tb.arrival.residual());
      for (std::size_t p = 0; p < ca.num_params; ++p) {
        ASSERT_EQ(ta.arrival.sensitivity(p), tb.arrival.sensitivity(p));
      }
    }
  }

  const ssta::SstaResult sa = ssta::run_ssta(plan, sources);
  const ssta::SstaResult sb = ssta::run_ssta(n, d, sources);
  ASSERT_EQ(sa.arrival.size(), sb.arrival.size());
  for (std::size_t id = 0; id < sa.arrival.size(); ++id) {
    ASSERT_EQ(sa.arrival[id].rise.mean, sb.arrival[id].rise.mean);
    ASSERT_EQ(sa.arrival[id].rise.var, sb.arrival[id].rise.var);
    ASSERT_EQ(sa.arrival[id].fall.mean, sb.arrival[id].fall.mean);
    ASSERT_EQ(sa.arrival[id].fall.var, sb.arrival[id].fall.var);
  }

  const stats::Gaussian arrival{0.0, 1.0};
  const ssta::PathSstaResult pa = ssta::run_path_ssta(plan, arrival, 4);
  const ssta::PathSstaResult pb = ssta::run_path_ssta(n, d, arrival, 4);
  ASSERT_EQ(pa.paths.size(), pb.paths.size());
  ASSERT_EQ(pa.max_delay.mean, pb.max_delay.mean);
  ASSERT_EQ(pa.max_delay.var, pb.max_delay.var);
  for (std::size_t i = 0; i < pa.paths.size(); ++i) {
    ASSERT_EQ(pa.paths[i].path.nodes, pb.paths[i].path.nodes);
    ASSERT_EQ(pa.paths[i].delay.mean, pb.paths[i].delay.mean);
    ASSERT_EQ(pa.paths[i].criticality, pb.paths[i].criticality);
  }

  mc::MonteCarloConfig mc_cfg;
  mc_cfg.runs = 2000;
  mc_cfg.seed = 7;
  mc_cfg.track_circuit_max = true;
  const mc::MonteCarloResult ma = mc::run_monte_carlo(plan, sources, mc_cfg);
  const mc::MonteCarloResult mb = mc::run_monte_carlo(n, d, sources, mc_cfg);
  ASSERT_EQ(ma.node.size(), mb.node.size());
  for (std::size_t id = 0; id < ma.node.size(); ++id) {
    for (int v = 0; v < 4; ++v) ASSERT_EQ(ma.node[id].count[v], mb.node[id].count[v]);
    ASSERT_EQ(ma.node[id].raw_edges, mb.node[id].raw_edges);
    ASSERT_EQ(ma.node[id].rise_time.mean(), mb.node[id].rise_time.mean());
    ASSERT_EQ(ma.node[id].fall_time.mean(), mb.node[id].fall_time.mean());
  }
  ASSERT_EQ(ma.glitching_gates, mb.glitching_gates);
  ASSERT_EQ(ma.circuit_max_samples, mb.circuit_max_samples);
}

// The plan's precomputed structure must reproduce what the engines used
// to derive per run: level ranges equal the legacy level_groups, the
// arena adjacency equals the per-node vectors, and the structural delay
// equals the longest critical path under mean delays.
TEST(CompiledDesign, StructureMatchesLegacyDerivation) {
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);
  const core::CompiledDesign plan(n, d);

  const netlist::Levelization lv = netlist::levelize(n);
  const std::vector<std::vector<NodeId>> groups = netlist::level_groups(lv);
  ASSERT_EQ(plan.level_count(), groups.size());
  ASSERT_EQ(plan.depth(), lv.depth);
  for (std::size_t l = 0; l < groups.size(); ++l) {
    const std::span<const NodeId> nodes = plan.level_nodes(l);
    ASSERT_EQ(std::vector<NodeId>(nodes.begin(), nodes.end()), groups[l]);
  }

  for (NodeId id = 0; id < n.node_count(); ++id) {
    const std::span<const NodeId> fi = plan.fanins(id);
    const std::span<const NodeId> fo = plan.fanouts(id);
    ASSERT_EQ(std::vector<NodeId>(fi.begin(), fi.end()), n.node(id).fanins);
    ASSERT_EQ(std::vector<NodeId>(fo.begin(), fo.end()), n.node(id).fanouts);
    ASSERT_EQ(plan.type(id), n.node(id).type);
  }

  ASSERT_EQ(std::vector<NodeId>(plan.timing_sources().begin(),
                                plan.timing_sources().end()),
            n.timing_sources());
  ASSERT_EQ(std::vector<NodeId>(plan.timing_endpoints().begin(),
                                plan.timing_endpoints().end()),
            n.timing_endpoints());

  const std::vector<netlist::Path> paths = netlist::critical_paths(n, d.means(), 1);
  ASSERT_FALSE(paths.empty());
  ASSERT_EQ(plan.structural_delay(), paths.front().delay);
}

// One CompiledDesign shared by concurrent runs (the Analyzer / service
// usage) must be race-free and produce results identical to serial runs.
// Run under TSan in CI; no gtest assertions inside the worker threads —
// results are collected and compared on the main thread.
TEST(CompiledDesign, CrossThreadReuseMatchesSerialRuns) {
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);
  const std::vector sources{netlist::scenario_I()};
  const core::CompiledDesign plan(n, d);

  const core::SpstaResult serial_moment = core::run_spsta_moment(plan, sources);
  const core::SpstaNumericResult serial_numeric =
      core::run_spsta_numeric(plan, sources);

  constexpr std::size_t kThreads = 8;
  std::vector<core::SpstaResult> moment(kThreads);
  std::vector<core::SpstaNumericResult> numeric(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&plan, &sources, &moment, &numeric, t] {
      moment[t] = core::run_spsta_moment(plan, sources);
      numeric[t] = core::run_spsta_numeric(plan, sources);
    });
  }
  for (std::thread& w : workers) w.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    expect_same_moment(moment[t], serial_moment);
    expect_same_numeric(numeric[t], serial_numeric);
  }
}

// The content hash is a pure function of the (netlist, delay model)
// inputs: equal inputs hash equal across independent compiles, and any
// netlist or delay change moves the hash.
TEST(CompiledDesign, ContentHashTracksInputs) {
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);

  const core::CompiledDesign a(n, d);
  const core::CompiledDesign b(n, d);
  EXPECT_EQ(a.content_hash(), b.content_hash());

  // Find a combinational gate to edit.
  NodeId gate = netlist::kInvalidNode;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (a.combinational(id) && !n.node(id).fanins.empty()) {
      gate = id;
      break;
    }
  }
  ASSERT_NE(gate, netlist::kInvalidNode);

  netlist::DelayModel edited = d;
  edited.set_delay(gate, stats::Gaussian{2.5, 0.01});
  EXPECT_NE(core::CompiledDesign(n, edited).content_hash(), a.content_hash());

  // A sign-bit-only delay change must still move the hash (the hash walks
  // raw double bits, not values that could collapse in arithmetic).
  netlist::DelayModel negated = d;
  negated.set_delay(gate, stats::Gaussian{-1.0, 0.05 * 0.05});
  EXPECT_NE(core::CompiledDesign(n, negated).content_hash(), a.content_hash());

  const netlist::Netlist other = test_circuit(43);
  const netlist::DelayModel other_d = netlist::DelayModel::gaussian(other, 1.0, 0.05);
  EXPECT_NE(core::CompiledDesign(other, other_d).content_hash(), a.content_hash());
}

// Kernel sets are bitwise equal when every kernel (taps and spectra) and
// every per-node index agree.
void expect_same_kernels(const core::DelayKernelSet& a, const core::DelayKernelSet& b) {
  ASSERT_EQ(a.dt, b.dt);
  ASSERT_EQ(a.spec_grid_n, b.spec_grid_n);
  ASSERT_EQ(a.rise_index, b.rise_index);
  ASSERT_EQ(a.fall_index, b.fall_index);
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (std::size_t k = 0; k < a.kernels.size(); ++k) {
    ASSERT_EQ(a.kernels[k].exact_shift, b.kernels[k].exact_shift);
    ASSERT_EQ(a.kernels[k].shift, b.kernels[k].shift);
    ASSERT_EQ(a.kernels[k].first, b.kernels[k].first);
    ASSERT_EQ(a.kernels[k].taps, b.kernels[k].taps);
    ASSERT_EQ(a.kernels[k].spec_n, b.kernels[k].spec_n);
    ASSERT_EQ(a.kernels[k].spec_re, b.kernels[k].spec_re);
    ASSERT_EQ(a.kernels[k].spec_im, b.kernels[k].spec_im);
  }
}

// The plan takes delay edits in place: a probe never writes it (epoch and
// the kernels built from it are unchanged), while after set_delay the
// kernels built on the edited plan — like the span products and hash —
// equal a new plan's.
TEST(CompiledDesign, SetDelayPatchesInPlaceAndProbesNeverWrite) {
  const netlist::Netlist n = test_circuit();
  netlist::DelayModel d = netlist::DelayModel::gaussian(n, 1.0, 0.05);
  core::CompiledDesign plan(n, d);
  const std::vector sources{netlist::scenario_I()};
  const stats::GridSpec grid = plan.grid_for(sources, core::SpstaOptions{});
  const core::DelayKernelSet kernels =
      core::build_delay_kernel_set(plan, grid.dt, grid.n);

  NodeId gate = netlist::kInvalidNode;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (plan.combinational(id) && !plan.fanins(id).empty()) gate = id;
  }
  ASSERT_NE(gate, netlist::kInvalidNode);

  core::IncrementalSpsta inc(plan, sources, /*settle_eps=*/0.0);
  const core::IncrementalSpsta::EcoEdit edit =
      core::IncrementalSpsta::EcoEdit::delay_edit(gate, {4.0, 0.3});
  const std::vector<NodeId> targets(plan.timing_endpoints().begin(),
                                    plan.timing_endpoints().end());
  (void)inc.probe({&edit, 1}, targets);
  EXPECT_EQ(plan.delay_epoch(), 0u);
  expect_same_kernels(core::build_delay_kernel_set(plan, grid.dt, grid.n), kernels);

  inc.set_delay(gate, {4.0, 0.3});
  d.set_delay(gate, {4.0, 0.3});
  EXPECT_EQ(plan.delay_epoch(), 1u);
  const core::CompiledDesign want(n, d);
  const core::DelayKernelSet patched =
      core::build_delay_kernel_set(plan, grid.dt, grid.n);
  EXPECT_NE(patched.kernels[patched.rise_index[gate]].taps,
            kernels.kernels[kernels.rise_index[gate]].taps);
  expect_same_kernels(patched, core::build_delay_kernel_set(want, grid.dt, grid.n));
  EXPECT_EQ(plan.structural_delay(), want.structural_delay());
  EXPECT_EQ(plan.max_delay_stddev(), want.max_delay_stddev());
  EXPECT_EQ(plan.content_hash(), want.content_hash());

  EXPECT_THROW(plan.set_delay(static_cast<NodeId>(n.node_count()), {1.0, 0.0}),
               std::invalid_argument);
}

// check_source_stats enforces the shared engine precondition: exactly one
// entry (broadcast) or one per timing source.
TEST(CompiledDesign, CheckSourceStatsRejectsBadCounts) {
  const netlist::Netlist n = test_circuit();
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  const core::CompiledDesign plan(n, d);

  const std::vector one{netlist::scenario_I()};
  const std::vector full(n.timing_sources().size(), netlist::scenario_I());
  EXPECT_NO_THROW(plan.check_source_stats(one, "test"));
  EXPECT_NO_THROW(plan.check_source_stats(full, "test"));

  const std::vector<netlist::SourceStats> none;
  const std::vector two(2, netlist::scenario_I());
  EXPECT_THROW(plan.check_source_stats(none, "test"), std::invalid_argument);
  EXPECT_THROW(plan.check_source_stats(two, "test"), std::invalid_argument);
}

}  // namespace
}  // namespace spsta
