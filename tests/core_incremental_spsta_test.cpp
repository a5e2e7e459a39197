// Tests for incremental SPSTA: consistency with the batch engine under
// arbitrary update sequences, and cone-limited work.

#include "core/incremental_spsta.hpp"

#include <gtest/gtest.h>

#include "core/compiled_design.hpp"

#include <cstring>

#include "netlist/iscas89.hpp"
#include "stats/rng.hpp"

namespace spsta::core {
namespace {

using netlist::Netlist;
using netlist::NodeId;

void expect_same(const std::vector<NodeTop>& a, const SpstaResult& b, const Netlist& n) {
  for (NodeId id = 0; id < n.node_count(); ++id) {
    EXPECT_NEAR(a[id].probs.pr, b.node[id].probs.pr, 1e-12) << n.node(id).name;
    EXPECT_NEAR(a[id].rise.mass, b.node[id].rise.mass, 1e-12) << n.node(id).name;
    EXPECT_NEAR(a[id].rise.arrival.mean, b.node[id].rise.arrival.mean, 1e-12)
        << n.node(id).name;
    EXPECT_NEAR(a[id].fall.arrival.var, b.node[id].fall.arrival.var, 1e-12)
        << n.node(id).name;
  }
}

TEST(IncrementalSpsta, InitialStateMatchesBatch) {
  const Netlist n = netlist::make_paper_circuit("s298");
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, sc);
  expect_same(inc.flush(), run_spsta_moment(n, d, sc), n);
  EXPECT_EQ(inc.nodes_reevaluated(), 0u);
}

TEST(IncrementalSpsta, DelayUpdateMatchesBatch) {
  const Netlist n = netlist::make_paper_circuit("s344");
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, sc);

  const NodeId target = n.timing_endpoints().front();
  inc.set_delay(target, {2.0, 0.04});
  d.set_delay(target, {2.0, 0.04});
  expect_same(inc.flush(), run_spsta_moment(n, d, sc), n);
}

TEST(IncrementalSpsta, SourceStatsUpdateMatchesBatch) {
  const Netlist n = netlist::make_paper_circuit("s386");
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  std::vector<netlist::SourceStats> sc(n.timing_sources().size(),
                                       netlist::scenario_I());
  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, sc);

  // Flip one input to scenario II statistics.
  sc[3] = netlist::scenario_II();
  inc.set_source_stats(3, sc[3]);
  expect_same(inc.flush(), run_spsta_moment(n, d, sc), n);
}

TEST(IncrementalSpsta, ProbabilityChangePropagatesOnlyWhereItMatters) {
  const Netlist n = netlist::make_paper_circuit("s1238");
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, sc);

  // A delay change at one endpoint gate touches only its (shallow) cone.
  const NodeId ep = n.timing_endpoints().front();
  inc.set_delay(ep, {1.7, 0.0});
  (void)inc.flush();
  EXPECT_GT(inc.nodes_reevaluated(), 0u);
  EXPECT_LT(inc.nodes_reevaluated(), n.node_count() / 4);
}

TEST(IncrementalSpsta, RandomUpdateSequenceStaysConsistent) {
  const Netlist n = netlist::make_paper_circuit("s526");
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  std::vector<netlist::SourceStats> sc(n.timing_sources().size(),
                                       netlist::scenario_I());
  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, sc);

  stats::Xoshiro256 rng(808);
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (netlist::is_combinational(n.node(id).type)) gates.push_back(id);
  }
  for (int step = 0; step < 20; ++step) {
    if (step % 4 == 3) {
      const std::size_t si = rng.uniform_index(sc.size());
      netlist::SourceStats st = rng.bernoulli(0.5) ? netlist::scenario_II()
                                                   : netlist::scenario_I();
      st.rise_arrival = {rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)};
      sc[si] = st;
      inc.set_source_stats(si, st);
    } else {
      const NodeId g = gates[rng.uniform_index(gates.size())];
      const stats::Gaussian delay{rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.05)};
      d.set_delay(g, delay);
      inc.set_delay(g, delay);
    }
    if (step % 5 == 4) expect_same(inc.flush(), run_spsta_moment(n, d, sc), n);
  }
  expect_same(inc.flush(), run_spsta_moment(n, d, sc), n);
}

// ---- ECO transactions and what-if probes (DESIGN.md §17) ----

// Bitwise equality: the transaction/probe contract is exact at
// settle_eps == 0, not merely within tolerance.
bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool bits_equal(const TransitionTop& a, const TransitionTop& b) {
  return bits_equal(a.mass, b.mass) && bits_equal(a.arrival.mean, b.arrival.mean) &&
         bits_equal(a.arrival.var, b.arrival.var) &&
         bits_equal(a.third_central, b.third_central);
}

bool bits_equal(const NodeTop& a, const NodeTop& b) {
  return bits_equal(a.probs.p0, b.probs.p0) && bits_equal(a.probs.p1, b.probs.p1) &&
         bits_equal(a.probs.pr, b.probs.pr) && bits_equal(a.probs.pf, b.probs.pf) &&
         bits_equal(a.rise, b.rise) && bits_equal(a.fall, b.fall);
}

void expect_bits_equal(const std::vector<NodeTop>& a, const std::vector<NodeTop>& b,
                       const Netlist& n) {
  ASSERT_EQ(a.size(), b.size());
  for (NodeId id = 0; id < n.node_count(); ++id) {
    EXPECT_TRUE(bits_equal(a[id], b[id])) << n.node(id).name;
  }
}

TEST(IncrementalSpsta, TransactionCommitMatchesFreshFullRun) {
  const Netlist n = netlist::make_paper_circuit("s1196");
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, sc, /*settle_eps=*/0.0);

  stats::Xoshiro256 rng(4242);
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (netlist::is_combinational(n.node(id).type)) gates.push_back(id);
  }
  netlist::DelayModel final_delays = d;
  inc.begin_eco();
  EXPECT_TRUE(inc.in_transaction());
  for (int i = 0; i < 24; ++i) {
    const NodeId g = gates[rng.uniform_index(gates.size())];
    const stats::Gaussian delay{rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.01)};
    inc.set_delay(g, delay);
    final_delays.set_delay(g, delay);
  }
  const auto stats = inc.commit();
  EXPECT_FALSE(inc.in_transaction());
  EXPECT_GT(stats.cone_size, 0u);

  CompiledDesign fresh_plan(n, final_delays);
  IncrementalSpsta fresh(fresh_plan, sc, /*settle_eps=*/0.0);
  expect_bits_equal(inc.flush(), fresh.flush(), n);
}

// The work a fixed script does, pinned: every commit's and probe's cone
// size and settled count, and the SSTA updates' total. Bit-identity alone
// would not show a wave that visits more nodes than it must (or settles
// fewer) while still landing on the same state.
TEST(IncrementalSpsta, WaveAccountingIsPinned) {
  using Stats = std::pair<std::uint64_t, std::uint64_t>;  // {cone_size, settled_early}
  const Netlist n = netlist::make_paper_circuit("s1238");
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  CompiledDesign plan(n, netlist::DelayModel::unit(n));
  IncrementalSpsta inc(plan, sc, /*settle_eps=*/0.0);

  std::vector<NodeId> gates;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (netlist::is_combinational(n.node(id).type)) gates.push_back(id);
  }
  const std::vector<NodeId> endpoints = n.timing_endpoints();
  const std::size_t num_sources = n.timing_sources().size();
  stats::Xoshiro256 rng(1238);

  std::vector<Stats> commits;
  std::vector<Stats> probes;
  for (int round = 0; round < 6; ++round) {
    // An 8-edit commit: five delays, one gate moved and moved back (it is
    // re-evaluated and settles), and one source whose arrival moves.
    inc.begin_eco();
    for (int k = 0; k < 5; ++k) {
      inc.set_delay(gates[rng.uniform_index(gates.size())],
                    {rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.01)});
    }
    const NodeId bounced = gates[rng.uniform_index(gates.size())];
    const stats::Gaussian kept = plan.delays().delay(bounced);
    inc.set_delay(bounced, {kept.mean + 0.5, kept.var});
    inc.set_delay(bounced, kept);
    netlist::SourceStats source =
        round % 2 == 0 ? netlist::scenario_II() : netlist::scenario_I();
    source.rise_arrival = {0.1 * round, 0.5};
    inc.set_source_stats(rng.uniform_index(num_sources), source);
    const auto committed = inc.commit();
    commits.emplace_back(committed.cone_size, committed.settled_early);

    // A mixed what-if against two endpoints: one delay, one gate moved and
    // moved back, and one source.
    netlist::SourceStats what_if_source = netlist::scenario_II();
    what_if_source.fall_arrival = {-0.2 * round, 0.8};
    const NodeId probe_bounced = gates[rng.uniform_index(gates.size())];
    const stats::Gaussian probe_kept = plan.delays().delay(probe_bounced);
    const std::vector<IncrementalSpsta::EcoEdit> what_if{
        IncrementalSpsta::EcoEdit::delay_edit(gates[rng.uniform_index(gates.size())],
                                              {rng.uniform(0.5, 2.0), 0.0}),
        IncrementalSpsta::EcoEdit::delay_edit(probe_bounced,
                                              {probe_kept.mean + 0.5, probe_kept.var}),
        IncrementalSpsta::EcoEdit::delay_edit(probe_bounced, probe_kept),
        IncrementalSpsta::EcoEdit::source_edit(rng.uniform_index(num_sources),
                                               what_if_source)};
    const std::vector<NodeId> targets{endpoints[round % endpoints.size()],
                                      endpoints[(round * 7 + 3) % endpoints.size()]};
    const auto probed = inc.probe(what_if, targets);
    probes.emplace_back(probed.stats.cone_size, probed.stats.settled_early);

    (void)inc.ssta();
  }

  EXPECT_EQ(commits, (std::vector<Stats>{
                         {308, 0}, {185, 1}, {323, 0}, {337, 0}, {217, 1}, {181, 1}}));
  EXPECT_EQ(probes, (std::vector<Stats>{
                        {0, 0}, {134, 1}, {134, 1}, {104, 1}, {95, 0}, {149, 1}}));
  EXPECT_EQ(inc.ssta_reevaluated(), 1243u);
}

TEST(IncrementalSpsta, ReadsThrowWhileTransactionOpen) {
  const Netlist n = netlist::make_s27();
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, std::vector{netlist::scenario_I()});
  inc.begin_eco();
  EXPECT_THROW((void)inc.node(0), std::logic_error);
  EXPECT_THROW((void)inc.flush(), std::logic_error);
  EXPECT_THROW(inc.begin_eco(), std::logic_error);
  (void)inc.commit();
  EXPECT_THROW((void)inc.commit(), std::logic_error);  // no open transaction
  (void)inc.flush();                                   // usable again
}

TEST(IncrementalSpsta, ProbeMatchesCommitThenQuery) {
  const Netlist n = netlist::make_paper_circuit("s1238");
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};
  const std::vector<NodeId> endpoints = n.timing_endpoints();
  const std::vector<NodeId> targets{endpoints[0], endpoints[endpoints.size() / 2]};

  stats::Xoshiro256 rng(99);
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (netlist::is_combinational(n.node(id).type)) gates.push_back(id);
  }
  std::vector<IncrementalSpsta::EcoEdit> edits;
  for (int i = 0; i < 6; ++i) {
    edits.push_back(IncrementalSpsta::EcoEdit::delay_edit(
        gates[rng.uniform_index(gates.size())],
        stats::Gaussian{rng.uniform(0.5, 2.0), 0.0}));
  }
  // A second edit of one gate: the later edit wins, in both paths.
  edits.push_back(IncrementalSpsta::EcoEdit::delay_edit(edits.front().node, {1.7, 0.0}));

  CompiledDesign prober_plan(n, d);
  IncrementalSpsta prober(prober_plan, sc, /*settle_eps=*/0.0);
  const auto probed = prober.probe(edits, targets);
  ASSERT_EQ(probed.tops.size(), targets.size());

  CompiledDesign committed_plan(n, d);
  IncrementalSpsta committed(committed_plan, sc, /*settle_eps=*/0.0);
  committed.begin_eco();
  for (const auto& e : edits) committed.set_delay(e.node, e.delay);
  (void)committed.commit();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_TRUE(bits_equal(probed.tops[i], committed.node(targets[i])));
  }
}

TEST(IncrementalSpsta, ProbeLeavesStateAndDelaysBitwiseUntouched) {
  const Netlist n = netlist::make_paper_circuit("s344");
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (netlist::is_combinational(n.node(id).type)) gates.push_back(id);
  }
  // Directional override on one probed gate: the probe's edit of it (which
  // would clear the override) must not reach the plan.
  const NodeId dir_gate = gates[2];
  d.set_rise_delay(dir_gate, {1.5, 0.01});
  d.set_fall_delay(dir_gate, {0.75, 0.02});

  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, std::vector{netlist::scenario_I()},
                       /*settle_eps=*/0.0);
  const std::vector<NodeTop> before = inc.flush();  // copy
  const std::uint64_t epoch_before = plan.delay_epoch();
  const std::uint64_t hash_before = plan.content_hash();

  const std::vector<NodeId> targets{n.timing_endpoints().front()};
  const std::vector<IncrementalSpsta::EcoEdit> edits{
      IncrementalSpsta::EcoEdit::delay_edit(gates[0], {1.9, 0.0}),
      IncrementalSpsta::EcoEdit::delay_edit(dir_gate, {0.6, 0.0}),
  };
  for (int round = 0; round < 3; ++round) {
    (void)inc.probe(edits, targets);
  }
  expect_bits_equal(inc.flush(), before, n);
  EXPECT_EQ(plan.delay_epoch(), epoch_before);
  EXPECT_EQ(plan.content_hash(), hash_before);
  EXPECT_TRUE(plan.delays().is_directional(dir_gate));

  // The directional override survived the probes: committing an unrelated
  // edit and re-flushing still matches a fresh run over the original model.
  inc.set_delay(gates[1], {1.3, 0.0});
  netlist::DelayModel d2 = d;
  d2.set_delay(gates[1], {1.3, 0.0});
  CompiledDesign fresh_plan(n, d2);
  IncrementalSpsta fresh(fresh_plan, std::vector{netlist::scenario_I()},
                         /*settle_eps=*/0.0);
  expect_bits_equal(inc.flush(), fresh.flush(), n);
}

TEST(IncrementalSpsta, ProbeValidatesEditsAndTargets) {
  const Netlist n = netlist::make_s27();
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, std::vector{netlist::scenario_I()});
  const std::vector<NodeId> ok_target{n.timing_endpoints().front()};
  const std::vector<IncrementalSpsta::EcoEdit> bad_edit{
      IncrementalSpsta::EcoEdit::delay_edit(static_cast<NodeId>(9999), {1.0, 0.0})};
  EXPECT_THROW((void)inc.probe(bad_edit, ok_target), std::invalid_argument);
  const std::vector<IncrementalSpsta::EcoEdit> ok_edit{
      IncrementalSpsta::EcoEdit::delay_edit(ok_target.front(), {1.5, 0.0})};
  const std::vector<NodeId> bad_target{static_cast<NodeId>(9999)};
  EXPECT_THROW((void)inc.probe(ok_edit, bad_target), std::invalid_argument);
  // A batch is validated before anything applies: a good source edit ahead
  // of a bad delay edit leaves no trace.
  const std::vector<NodeTop> before = inc.flush();  // copy
  const std::vector<IncrementalSpsta::EcoEdit> half_bad{
      IncrementalSpsta::EcoEdit::source_edit(0, netlist::scenario_II()),
      bad_edit.front()};
  EXPECT_THROW((void)inc.probe(half_bad, ok_target), std::invalid_argument);
  expect_bits_equal(inc.flush(), before, n);
  inc.begin_eco();
  EXPECT_THROW((void)inc.probe(ok_edit, ok_target), std::logic_error);
  (void)inc.commit();
}

TEST(IncrementalSpsta, NoOpEditsReevaluateNothing) {
  const Netlist n = netlist::make_s27();
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, std::vector{netlist::scenario_I()});
  const NodeId g = n.timing_endpoints().front();
  inc.set_delay(g, {1.0, 0.0});  // no-op: unit delay already
  (void)inc.flush();
  EXPECT_EQ(inc.nodes_reevaluated(), 0u);
  inc.set_delay(g, {1.5, 0.0});
  (void)inc.flush();
  EXPECT_GT(inc.nodes_reevaluated(), 0u);
}

// Regression: a common-delay edit equal to the common slot of a gate with a
// rise override is not a no-op. Setting the common delay clears the
// override, so the gate's effective rise delay moves. Both the committed
// edit and a probe of it must match a fresh run over the edited model.
TEST(IncrementalSpsta, CommonEditOnDirectionalGateMatchesFreshRun) {
  const Netlist n = netlist::make_paper_circuit("s344");
  netlist::DelayModel d = netlist::DelayModel::unit(n);
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < n.node_count(); ++id) {
    if (netlist::is_combinational(n.node(id).type)) gates.push_back(id);
  }
  const NodeId g = gates[2];
  d.set_rise_delay(g, {1.5, 0.01});
  const stats::Gaussian common = d.delay(g);
  const std::vector sc{netlist::scenario_I()};

  netlist::DelayModel edited = d;
  edited.set_delay(g, common);
  const std::vector<NodeTop> want = run_spsta_moment(n, edited, sc).node;

  CompiledDesign probe_plan(n, d);
  IncrementalSpsta prober(probe_plan, sc, /*settle_eps=*/0.0);
  const std::vector<NodeId> targets = n.timing_endpoints();
  const IncrementalSpsta::EcoEdit edit = IncrementalSpsta::EcoEdit::delay_edit(g, common);
  const auto probed = prober.probe({&edit, 1}, targets);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_TRUE(bits_equal(probed.tops[i], want[targets[i]])) << n.node(targets[i]).name;
  }

  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, sc, /*settle_eps=*/0.0);
  inc.set_delay(g, common);
  expect_bits_equal(inc.flush(), want, n);
}

// The plan owns the delays; a write that bypasses the engine leaves its
// state stale, and every read says so instead of answering from it.
TEST(IncrementalSpsta, ReadsThrowAfterThePlanIsEditedBehindTheEngine) {
  const Netlist n = netlist::make_paper_circuit("s298");
  CompiledDesign plan(n, netlist::DelayModel::unit(n));
  IncrementalSpsta inc(plan, std::vector{netlist::scenario_I()});
  const NodeId g = n.timing_endpoints().front();
  inc.set_delay(g, {1.5, 0.0});  // the engine's own write: still in sync
  (void)inc.flush();
  EXPECT_EQ(plan.delays().delay(g).mean, 1.5);

  plan.set_delay(g, {2.0, 0.0});
  EXPECT_THROW((void)inc.flush(), std::logic_error);
  EXPECT_THROW((void)inc.node(g), std::logic_error);
  const std::vector<NodeId> targets{g};
  EXPECT_THROW((void)inc.probe({}, targets), std::logic_error);
  inc.begin_eco();
  EXPECT_THROW((void)inc.commit(), std::logic_error);
  EXPECT_FALSE(inc.in_transaction());
  // Later engine writes do not hide the foreign one.
  inc.set_delay(g, {2.5, 0.0});
  EXPECT_THROW((void)inc.flush(), std::logic_error);
}

TEST(IncrementalSpsta, Validation) {
  const Netlist n = netlist::make_s27();
  const netlist::DelayModel d = netlist::DelayModel::unit(n);
  CompiledDesign plan(n, d);
  IncrementalSpsta inc(plan, std::vector{netlist::scenario_I()});
  EXPECT_THROW(inc.set_delay(static_cast<NodeId>(9999), {1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(inc.set_source_stats(99, netlist::scenario_I()), std::invalid_argument);
}

}  // namespace
}  // namespace spsta::core
