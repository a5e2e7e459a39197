// Tests for incremental SSTA on the plan's incremental engine: after any
// sequence of updates the arrivals must equal a from-scratch run bit for
// bit (settle_eps 0), while each read re-evaluates only the affected cone.

#include <gtest/gtest.h>

#include <cstring>

#include "core/compiled_design.hpp"
#include "core/incremental_spsta.hpp"
#include "netlist/generator.hpp"
#include "netlist/iscas89.hpp"
#include "ssta/ssta.hpp"
#include "stats/rng.hpp"

namespace spsta::ssta {
namespace {

using core::CompiledDesign;
using core::IncrementalSpsta;
using netlist::Netlist;
using netlist::NodeId;

void expect_same(const std::vector<NodeArrival>& a, const SstaResult& b) {
  ASSERT_EQ(a.size(), b.arrival.size());
  for (std::size_t id = 0; id < a.size(); ++id) {
    EXPECT_EQ(0, std::memcmp(&a[id], &b.arrival[id], sizeof(NodeArrival))) << id;
  }
}

std::vector<NodeId> gates_of(const Netlist& n) {
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (netlist::is_combinational(n.node(id).type)) gates.push_back(id);
  }
  return gates;
}

TEST(SstaIncremental, InitialStateMatchesBatch) {
  const Netlist n = netlist::make_paper_circuit("s298");
  CompiledDesign plan(n, netlist::DelayModel::unit(n));
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  IncrementalSpsta inc(plan, sc, /*settle_eps=*/0.0);
  expect_same(inc.ssta(), run_ssta(plan, sc));
  EXPECT_EQ(inc.ssta_reevaluated(), 0u);  // the full pass is not counted
}

TEST(SstaIncremental, DelayUpdateMatchesBatch) {
  const Netlist n = netlist::make_paper_circuit("s344");
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  CompiledDesign plan(n, d);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  IncrementalSpsta inc(plan, sc, 0.0);
  (void)inc.ssta();

  // Slow down one mid-circuit gate.
  NodeId target = netlist::kInvalidNode;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (netlist::is_combinational(n.node(id).type) && !n.node(id).fanouts.empty()) {
      target = id;
      break;
    }
  }
  ASSERT_NE(target, netlist::kInvalidNode);
  inc.set_delay(target, {2.5, 0.09});
  d.set_delay(target, {2.5, 0.09});
  expect_same(inc.ssta(), run_ssta(n, d, sc));
}

TEST(SstaIncremental, UpdateVisitsOnlyFanoutCone) {
  const Netlist n = netlist::make_paper_circuit("s1196");
  CompiledDesign plan(n, netlist::DelayModel::unit(n));
  IncrementalSpsta inc(plan, std::vector{netlist::scenario_I()}, 0.0);
  (void)inc.ssta();

  // Change a gate near the outputs: only a small cone should re-evaluate.
  const NodeId deep = n.timing_endpoints().front();
  inc.set_delay(deep, {1.5, 0.0});
  (void)inc.ssta();
  EXPECT_GT(inc.ssta_reevaluated(), 0u);
  EXPECT_LT(inc.ssta_reevaluated(), n.node_count() / 4)
      << "incremental update should touch a small fraction of "
      << n.node_count() << " nodes";
}

TEST(SstaIncremental, NoopUpdateReevaluatesNothing) {
  const Netlist n = netlist::make_paper_circuit("s298");
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, std::vector{netlist::scenario_I()}, 0.0);
  (void)inc.ssta();
  const NodeId some_gate = n.timing_endpoints().front();
  inc.set_delay(some_gate, d.delay(some_gate));  // unchanged value
  (void)inc.ssta();
  EXPECT_EQ(inc.ssta_reevaluated(), 0u);
}

TEST(SstaIncremental, SourceArrivalUpdateMatchesBatch) {
  const Netlist n = netlist::make_paper_circuit("s386");
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  CompiledDesign plan(n, d);
  std::vector<netlist::SourceStats> sc(n.timing_sources().size(),
                                       netlist::scenario_I());
  IncrementalSpsta inc(plan, sc, 0.0);
  (void)inc.ssta();

  sc[2].rise_arrival = {0.5, 2.0};
  sc[2].fall_arrival = {-0.5, 0.5};
  inc.set_source_stats(2, sc[2]);
  expect_same(inc.ssta(), run_ssta(n, d, sc));
  EXPECT_GT(inc.ssta_reevaluated(), 0u);
}

TEST(SstaIncremental, ProbabilityOnlySourceEditReevaluatesNoSstaNode) {
  // SSTA is input-statistics-oblivious: new value probabilities with the
  // same arrivals move the moment state but no SSTA arrival.
  const Netlist n = netlist::make_paper_circuit("s386");
  CompiledDesign plan(n, netlist::DelayModel::unit(n));
  const std::vector<netlist::SourceStats> sc(n.timing_sources().size(),
                                             netlist::scenario_I());
  IncrementalSpsta inc(plan, sc, 0.0);
  const std::vector<NodeArrival> before = inc.ssta();

  netlist::SourceStats edited = sc[1];
  edited.probs = netlist::scenario_II().probs;
  inc.set_source_stats(1, edited);
  (void)inc.flush();
  EXPECT_GT(inc.nodes_reevaluated(), 0u);  // the moment cone did move
  const std::vector<NodeArrival>& after = inc.ssta();
  EXPECT_EQ(inc.ssta_reevaluated(), 0u);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(0, std::memcmp(after.data(), before.data(),
                           before.size() * sizeof(NodeArrival)));
}

TEST(SstaIncremental, CommitsProbesAndMomentReadsLeaveTheArrayUntouched) {
  const Netlist n = netlist::make_paper_circuit("s526");
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  CompiledDesign plan(n, d);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  IncrementalSpsta inc(plan, sc, 0.0);
  const std::vector<NodeArrival>& live = inc.ssta();
  const std::vector<NodeArrival> snapshot = live;
  const auto untouched = [&] {
    ASSERT_EQ(live.size(), snapshot.size());
    EXPECT_EQ(0, std::memcmp(live.data(), snapshot.data(),
                             snapshot.size() * sizeof(NodeArrival)));
    EXPECT_EQ(inc.ssta_reevaluated(), 0u);
  };

  const std::vector<NodeId> gates = gates_of(n);
  const std::vector<NodeId> endpoints = n.timing_endpoints();
  const IncrementalSpsta::EcoEdit what_if =
      IncrementalSpsta::EcoEdit::delay_edit(gates[gates.size() / 2], {2.0, 0.05});
  (void)inc.probe({&what_if, 1}, endpoints);
  untouched();

  inc.begin_eco();
  inc.set_delay(gates[3], {1.7, 0.02});
  d.set_delay(gates[3], {1.7, 0.02});
  (void)inc.commit();
  (void)inc.node(endpoints.front());
  (void)inc.flush();
  untouched();

  // The next SSTA read catches up on the committed edit alone.
  expect_same(inc.ssta(), run_ssta(n, d, sc));
  EXPECT_GT(inc.ssta_reevaluated(), 0u);
}

TEST(SstaIncremental, ReadThrowsInTransactionAndAfterOutOfBandEdit) {
  const Netlist n = netlist::make_paper_circuit("s298");
  CompiledDesign plan(n, netlist::DelayModel::unit(n));
  IncrementalSpsta inc(plan, std::vector{netlist::scenario_I()}, 0.0);
  (void)inc.ssta();
  const NodeId gate = gates_of(n).front();

  inc.begin_eco();
  inc.set_delay(gate, {2.0, 0.0});
  EXPECT_THROW((void)inc.ssta(), std::logic_error);
  (void)inc.commit();
  EXPECT_NO_THROW((void)inc.ssta());

  plan.set_delay(gate, {3.0, 0.0});  // behind the engine's back
  EXPECT_THROW((void)inc.ssta(), std::logic_error);
}

TEST(SstaIncremental, RandomUpdateSequenceStaysConsistent) {
  const Netlist n = netlist::make_paper_circuit("s526");
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  CompiledDesign plan(n, d);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  IncrementalSpsta inc(plan, sc, 0.0);
  (void)inc.ssta();

  stats::Xoshiro256 rng(606);
  const std::vector<NodeId> gates = gates_of(n);
  for (int step = 0; step < 25; ++step) {
    const NodeId g = gates[rng.uniform_index(gates.size())];
    const stats::Gaussian delay{rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.1)};
    inc.set_delay(g, delay);
    d.set_delay(g, delay);
    if (step % 5 == 4) {  // interleave queries with updates
      expect_same(inc.ssta(), run_ssta(n, d, sc));
    }
  }
  expect_same(inc.ssta(), run_ssta(n, d, sc));
  // The incremental engine must have done less work than 25 full passes.
  EXPECT_LT(inc.ssta_reevaluated(), 25u * n.node_count());
}

TEST(SstaIncremental, EightEditCommitOnGen10kReevaluatesOnlyItsCone) {
  // The eco loop: an 8-edit commit, then an SSTA re-time. The re-time
  // visits only the forward cone of the edited gates, not the design.
  netlist::GeneratorSpec spec;
  spec.name = "gen10k";
  spec.num_inputs = 64;
  spec.num_outputs = 32;
  spec.num_gates = 10000;
  spec.target_depth = 30;
  spec.seed = 7;
  spec.weight_xor = 1.0;
  spec.weight_xnor = 0.5;
  const Netlist n = netlist::generate_circuit(spec);
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  CompiledDesign plan(n, d);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  IncrementalSpsta inc(plan, sc, 0.0);
  (void)inc.ssta();

  const std::vector<NodeId> gates = gates_of(n);
  stats::Xoshiro256 rng(11);
  std::vector<char> cone(n.node_count(), 0);
  std::vector<NodeId> stack;
  inc.begin_eco();
  for (int k = 0; k < 8; ++k) {
    const NodeId g = gates[rng.uniform_index(gates.size())];
    const stats::Gaussian delay{rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.1)};
    inc.set_delay(g, delay);
    d.set_delay(g, delay);
    stack.push_back(g);
  }
  (void)inc.commit();
  while (!stack.empty()) {  // forward combinational closure of the edits
    const NodeId id = stack.back();
    stack.pop_back();
    if (cone[id] != 0) continue;
    cone[id] = 1;
    for (const NodeId fo : n.node(id).fanouts) {
      if (netlist::is_combinational(n.node(fo).type)) stack.push_back(fo);
    }
  }
  std::uint64_t cone_size = 0;
  for (const char c : cone) cone_size += c != 0 ? 1 : 0;

  expect_same(inc.ssta(), run_ssta(n, d, sc));
  EXPECT_GT(inc.ssta_reevaluated(), 0u);
  EXPECT_LE(inc.ssta_reevaluated(), cone_size);
  EXPECT_LT(inc.ssta_reevaluated(), n.node_count());
}

TEST(SstaIncremental, ArrivalQueryTriggersLazyUpdate) {
  const Netlist n = netlist::make_paper_circuit("s298");
  CompiledDesign plan(n, netlist::DelayModel::unit(n));
  IncrementalSpsta inc(plan, std::vector{netlist::scenario_I()}, 0.0);
  const NodeId ep = n.timing_endpoints().front();
  const double before = inc.ssta()[ep].rise.mean;
  // Make every gate slower through the endpoint's fanin.
  inc.set_delay(ep, {3.0, 0.0});
  const double after = inc.ssta()[ep].rise.mean;
  EXPECT_NEAR(after, before + 2.0, 1e-9);
}

TEST(SstaIncremental, Validation) {
  const Netlist n = netlist::make_s27();
  CompiledDesign plan(n, netlist::DelayModel::unit(n));
  IncrementalSpsta inc(plan, std::vector{netlist::scenario_I()}, 0.0);
  EXPECT_THROW(inc.set_delay(static_cast<NodeId>(9999), {1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(inc.set_source_stats(99, netlist::scenario_I()), std::invalid_argument);
  EXPECT_THROW((IncrementalSpsta(plan, std::vector<netlist::SourceStats>(3))),
               std::invalid_argument);
}

}  // namespace
}  // namespace spsta::ssta
