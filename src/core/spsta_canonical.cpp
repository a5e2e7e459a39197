#include "core/spsta_canonical.hpp"

#include <algorithm>
#include <cmath>

#include "core/compiled_design.hpp"
#include "core/patterns.hpp"
#include "sigprob/four_value_prop.hpp"

namespace spsta::core {

using netlist::FourValueProbs;
using netlist::NodeId;
using variational::CanonicalForm;

double SpstaCanonicalResult::arrival_correlation(NodeId a, bool a_rising, NodeId b,
                                                 bool b_rising) const {
  const CanonicalForm& fa = a_rising ? node.at(a).rise.arrival : node.at(a).fall.arrival;
  const CanonicalForm& fb = b_rising ? node.at(b).rise.arrival : node.at(b).fall.arrival;
  return variational::correlation(fa, fb);
}

namespace {

/// Clark MAX/MIN fold over a scenario's switching inputs, covariance taken
/// from the canonical forms themselves.
CanonicalForm fold_arrivals(const SwitchPattern& p,
                            const std::vector<NodeCanonicalTop>& node,
                            std::span<const NodeId> fanins) {
  CanonicalForm acc;
  bool first = true;
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    if (!(p.switching_mask & (1u << i))) continue;
    const NodeCanonicalTop& in = node[fanins[i]];
    const CanonicalForm& contrib =
        (p.rising_mask & (1u << i)) ? in.rise.arrival : in.fall.arrival;
    if (first) {
      acc = contrib;
      first = false;
    } else {
      acc = (p.op == SettleOp::Max) ? variational::max(acc, contrib)
                                    : variational::min(acc, contrib);
    }
  }
  return acc;
}

/// Probability-weighted mixture of canonical forms collapsed back to one
/// form: nominal and sensitivities blend linearly; the residual absorbs
/// the cross-scenario mean spread plus each scenario's own residual (law
/// of total variance applied to the non-shared part).
CanonicalForm collapse_mixture(const std::vector<std::pair<double, CanonicalForm>>& mix,
                               std::size_t num_params) {
  double mass = 0.0;
  for (const auto& [w, f] : mix) mass += w;
  if (mass <= 0.0 || mix.empty()) return CanonicalForm(0.0, num_params);

  CanonicalForm out(0.0, num_params);
  double nominal = 0.0;
  std::vector<double> sens(num_params, 0.0);
  for (const auto& [w, f] : mix) {
    const double q = w / mass;
    nominal += q * f.nominal();
    for (std::size_t j = 0; j < num_params; ++j) sens[j] += q * f.sensitivity(j);
  }
  // Total variance of the mixture (each component is Gaussian with its
  // canonical variance around its nominal).
  double total_var = 0.0;
  for (const auto& [w, f] : mix) {
    const double q = w / mass;
    const double d = f.nominal() - nominal;
    total_var += q * (f.variance() + d * d);
  }
  double shared_var = 0.0;
  for (double s : sens) shared_var += s * s;
  const double resid = std::sqrt(std::max(0.0, total_var - shared_var));
  return {nominal, std::move(sens), resid};
}

}  // namespace

SpstaCanonicalResult run_spsta_canonical(const CompiledDesign& plan,
                                         std::span<const netlist::SourceStats> source_stats) {
  plan.check_source_stats(source_stats, "run_spsta_canonical");
  const std::span<const NodeId> sources = plan.timing_sources();

  SpstaCanonicalResult result;
  result.num_params = 2 * sources.size();
  result.node.assign(plan.node_count(),
                     NodeCanonicalTop{{}, {0.0, CanonicalForm(0.0, result.num_params)},
                                      {0.0, CanonicalForm(0.0, result.num_params)}});

  for (std::size_t i = 0; i < sources.size(); ++i) {
    const netlist::SourceStats& st =
        source_stats.size() == 1 ? source_stats[0] : source_stats[i];
    NodeCanonicalTop& top = result.node[sources[i]];
    top.probs = st.probs.normalized();

    CanonicalForm rise(st.rise_arrival.mean, result.num_params);
    rise.set_sensitivity(2 * i, st.rise_arrival.stddev());
    top.rise = {top.probs.pr, std::move(rise)};

    CanonicalForm fall(st.fall_arrival.mean, result.num_params);
    fall.set_sensitivity(2 * i + 1, st.fall_arrival.stddev());
    top.fall = {top.probs.pf, std::move(fall)};
  }

  std::vector<FourValueProbs> fanin_probs;
  std::vector<SwitchPattern> patterns;
  for (NodeId id : plan.levelization().order) {
    if (!plan.combinational(id)) continue;
    const netlist::GateType type = plan.type(id);
    const std::span<const NodeId> fanins = plan.fanins(id);

    NodeCanonicalTop& top = result.node[id];
    fanin_probs.clear();
    for (NodeId f : fanins) fanin_probs.push_back(result.node[f].probs);
    top.probs = sigprob::gate_four_value(type, fanin_probs);

    if (fanins.empty()) {
      top.rise = {0.0, CanonicalForm(0.0, result.num_params)};
      top.fall = {0.0, CanonicalForm(0.0, result.num_params)};
      continue;
    }

    enumerate_switch_patterns(type, fanin_probs, patterns);
    std::vector<std::pair<double, CanonicalForm>> rise_mix, fall_mix;
    for (const SwitchPattern& p : patterns) {
      CanonicalForm arrival = fold_arrivals(p, result.node, fanins);
      (p.output_rising ? rise_mix : fall_mix).emplace_back(p.weight, std::move(arrival));
    }

    const auto finish = [&](std::vector<std::pair<double, CanonicalForm>>& mix,
                            const stats::Gaussian& d) -> CanonicalTop {
      double mass = 0.0;
      for (const auto& [w, f] : mix) mass += w;
      if (mass <= 0.0) return {0.0, CanonicalForm(0.0, result.num_params)};
      CanonicalForm form = collapse_mixture(mix, result.num_params);
      CanonicalForm shifted(form.nominal() + d.mean,
                            std::vector<double>(form.sensitivities().begin(),
                                                form.sensitivities().end()),
                            std::hypot(form.residual(), d.stddev()));
      return {mass, std::move(shifted)};
    };
    top.rise = finish(rise_mix, plan.delays().delay(id, true));
    top.fall = finish(fall_mix, plan.delays().delay(id, false));
  }
  return result;
}

SpstaCanonicalResult run_spsta_canonical(const netlist::Netlist& design,
                                         const netlist::DelayModel& delays,
                                         std::span<const netlist::SourceStats> source_stats) {
  return run_spsta_canonical(CompiledDesign(design, delays), source_stats);
}

}  // namespace spsta::core
