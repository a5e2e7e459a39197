#include <cmath>

#include "core/compiled_design.hpp"
#include "core/patterns.hpp"
#include "core/spsta.hpp"
#include "obs/metrics.hpp"
#include "sigprob/four_value_prop.hpp"
#include "stats/mixture.hpp"
#include "util/thread_pool.hpp"

namespace spsta::core {

using netlist::FourValueProbs;
using netlist::NodeId;
using stats::Gaussian;

double TransitionTop::skewness() const noexcept {
  if (arrival.var <= 0.0) return 0.0;
  return third_central / std::pow(arrival.var, 1.5);
}

namespace {

/// Third central moment of a Gaussian mixture whose components carry zero
/// third moment themselves:
///   m3 = sum_i q_i * (3 d_i var_i + d_i^3),  d_i = mu_i - mu.
double mixture_third_central(const stats::GaussianMixture& mix) {
  const double mass = mix.mass();
  if (mass <= 0.0) return 0.0;
  const double mu = mix.mean();
  double m3 = 0.0;
  for (const auto& c : mix.components()) {
    const double q = c.weight / mass;
    const double d = c.component.mean - mu;
    m3 += q * (3.0 * d * c.component.var + d * d * d);
  }
  return m3;
}

/// Folds the conditional arrival Gaussians of a scenario's switching
/// inputs with Clark MAX/MIN (inputs treated as independent, as in the
/// paper's implementation — see Sec. 4 observation 5).
Gaussian fold_arrivals(const SwitchPattern& p, std::span<const NodeTop> node,
                       std::span<const NodeId> fanins) {
  Gaussian acc;
  bool first = true;
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    if (!(p.switching_mask & (1u << i))) continue;
    const NodeTop& in = node[fanins[i]];
    const Gaussian contrib =
        (p.rising_mask & (1u << i)) ? in.rise.arrival : in.fall.arrival;
    if (first) {
      acc = contrib;
      first = false;
    } else {
      acc = (p.op == SettleOp::Max) ? stats::clark_max(acc, contrib).moments
                                    : stats::clark_min(acc, contrib).moments;
    }
  }
  return acc;
}

}  // namespace

NodeTop propagate_node_top(const CompiledDesign& plan, NodeId id,
                           std::span<const NodeTop> state, const Gaussian& rise_delay,
                           const Gaussian& fall_delay) {
  const netlist::GateType type = plan.type(id);
  const std::span<const NodeId> fanins = plan.fanins(id);
  NodeTop top;
  // Per-thread scratch: steady-state evaluation allocates nothing here.
  thread_local std::vector<FourValueProbs> fanin_probs;
  thread_local std::vector<SwitchPattern> patterns;
  fanin_probs.clear();
  for (NodeId f : fanins) fanin_probs.push_back(state[f].probs);
  top.probs = sigprob::gate_four_value(type, fanin_probs);

  if (fanins.empty()) return top;  // constants: no transitions

  enumerate_switch_patterns(type, fanin_probs, patterns);
  stats::GaussianMixture rise_mix, fall_mix;
  for (const SwitchPattern& p : patterns) {
    const Gaussian arrival = fold_arrivals(p, state, fanins);
    (p.output_rising ? rise_mix : fall_mix).add(p.weight, arrival);
  }
  // Adding the (symmetric) gate delay leaves the third central moment of
  // the mixture unchanged.
  top.rise = {rise_mix.mass(), stats::sum(rise_mix.moments(), rise_delay),
              mixture_third_central(rise_mix)};
  top.fall = {fall_mix.mass(), stats::sum(fall_mix.moments(), fall_delay),
              mixture_third_central(fall_mix)};
  if (top.rise.mass <= 0.0) top.rise = {};
  if (top.fall.mass <= 0.0) top.fall = {};
  return top;
}

SpstaResult run_spsta_moment(const CompiledDesign& plan,
                             std::span<const netlist::SourceStats> source_stats,
                             const SpstaOptions& options) {
  plan.check_source_stats(source_stats, "run_spsta_moment");
  const std::span<const NodeId> sources = plan.timing_sources();

  SpstaResult result;
  result.node.assign(plan.node_count(), NodeTop{});
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const netlist::SourceStats& st =
        source_stats.size() == 1 ? source_stats[0] : source_stats[i];
    NodeTop& top = result.node[sources[i]];
    top.probs = st.probs.normalized();
    top.rise = {top.probs.pr, st.rise_arrival};
    top.fall = {top.probs.pf, st.fall_arrival};
  }

  // Level-parallel propagation: nodes of one level depend only on strictly
  // lower levels, so they evaluate concurrently and each writes its own
  // slot — bit-identical results at any thread count.
  static obs::LatencyHistogram& stage_hist =
      obs::registry().histogram("stage.moment.propagate");
  const obs::StageTimer timer(stage_hist);
  util::ThreadPool pool(options.threads);
  for (std::size_t level = 0; level < plan.level_count(); ++level) {
    const std::span<const NodeId> group = plan.level_nodes(level);
    pool.for_each_index(group.size(), [&](std::size_t k) {
      const NodeId id = group[k];
      if (!plan.combinational(id)) return;
      result.node[id] =
          propagate_node_top(plan, id, result.node, plan.delays().delay(id, true),
                             plan.delays().delay(id, false));
    });
  }
  return result;
}

SpstaResult run_spsta_moment(const netlist::Netlist& design,
                             const netlist::DelayModel& delays,
                             std::span<const netlist::SourceStats> source_stats) {
  return run_spsta_moment(design, delays, source_stats, SpstaOptions{});
}

SpstaResult run_spsta_moment(const netlist::Netlist& design,
                             const netlist::DelayModel& delays,
                             std::span<const netlist::SourceStats> source_stats,
                             const SpstaOptions& options) {
  return run_spsta_moment(CompiledDesign(design, delays), source_stats, options);
}

}  // namespace spsta::core
