#include "power/transition_density.hpp"

#include <stdexcept>

#include "bdd/bdd_netlist.hpp"
#include "netlist/levelize.hpp"
#include "sigprob/boolean_difference.hpp"
#include "sigprob/signal_prob.hpp"

namespace spsta::power {

using netlist::GateType;
using netlist::NodeId;

TransitionDensities propagate_transition_density(const netlist::Netlist& design,
                                                 std::span<const double> source_probs,
                                                 std::span<const double> source_densities,
                                                 DensityMethod method) {
  const std::vector<NodeId> sources = design.timing_sources();
  if ((source_probs.size() != sources.size() && source_probs.size() != 1) ||
      (source_densities.size() != sources.size() && source_densities.size() != 1)) {
    throw std::invalid_argument("propagate_transition_density: source span mismatch");
  }

  TransitionDensities out;
  out.signal_probability = sigprob::propagate_signal_probabilities(design, source_probs);
  out.density.assign(design.node_count(), 0.0);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out.density[sources[i]] =
        source_densities.size() == 1 ? source_densities[0] : source_densities[i];
  }

  // For the exact method, per-source one-probabilities for BDD evaluation.
  std::vector<double> var_probs(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    var_probs[i] = source_probs.size() == 1 ? source_probs[0] : source_probs[i];
  }
  std::optional<bdd::NetlistBdds> bdds;
  if (method == DensityMethod::ExactBdd) {
    bdds.emplace(bdd::build_netlist_bdds(design));
  }
  // Map node id -> BDD variable index (for exact Boolean differences).
  std::vector<std::size_t> var_of(design.node_count(), SIZE_MAX);
  for (std::size_t i = 0; i < sources.size(); ++i) var_of[sources[i]] = i;

  const netlist::Levelization lv = netlist::levelize(design);
  std::vector<double> fanin_probs;
  for (NodeId id : lv.order) {
    const netlist::Node& node = design.node(id);
    if (!netlist::is_combinational(node.type)) continue;

    if (method == DensityMethod::ExactBdd && bdds && bdds->function[id]) {
      // Najm's exact formulation needs dy/dx against *primary* inputs; for
      // internal fanins we use the chain form with gate-local differences
      // but evaluate their probabilities on the global functions:
      // P(d gate / d fanin) with the fanin's cofactors taken on the gate's
      // local function, other fanins keeping their global distributions.
      // In practice the gate-local difference depends only on the other
      // fanins, so we evaluate each such difference exactly by composing
      // the other fanins' global BDDs.
      double acc = 0.0;
      for (std::size_t i = 0; i < node.fanins.size(); ++i) {
        // Build the local difference condition over the other fanins'
        // global functions.
        bdd::BddRef cond = bdd::kTrue;
        bool ok = true;
        switch (node.type) {
          case GateType::Buf:
          case GateType::Not: cond = bdd::kTrue; break;
          case GateType::And:
          case GateType::Nand: {
            for (std::size_t j = 0; j < node.fanins.size() && ok; ++j) {
              if (j == i) continue;
              if (!bdds->function[node.fanins[j]]) { ok = false; break; }
              cond = bdds->manager.apply_and(cond, *bdds->function[node.fanins[j]]);
            }
            break;
          }
          case GateType::Or:
          case GateType::Nor: {
            for (std::size_t j = 0; j < node.fanins.size() && ok; ++j) {
              if (j == i) continue;
              if (!bdds->function[node.fanins[j]]) { ok = false; break; }
              cond = bdds->manager.apply_and(
                  cond, bdds->manager.apply_not(*bdds->function[node.fanins[j]]));
            }
            break;
          }
          case GateType::Xor:
          case GateType::Xnor: cond = bdd::kTrue; break;
          default: cond = bdd::kFalse; break;
        }
        const double p_cond =
            ok ? bdds->manager.probability(cond, var_probs) : 0.0;
        acc += p_cond * out.density[node.fanins[i]];
      }
      out.density[id] = acc;
      continue;
    }

    fanin_probs.clear();
    for (NodeId f : node.fanins) fanin_probs.push_back(out.signal_probability[f]);
    const std::vector<double> diff =
        sigprob::boolean_difference_probabilities(node.type, fanin_probs);
    double acc = 0.0;
    for (std::size_t i = 0; i < node.fanins.size(); ++i) {
      acc += diff[i] * out.density[node.fanins[i]];
    }
    out.density[id] = acc;
  }
  return out;
}

double dynamic_power(const TransitionDensities& densities, double vdd, double clock_hz,
                     double capacitance_per_node) {
  double toggles = 0.0;
  for (double d : densities.density) toggles += d;
  return 0.5 * vdd * vdd * clock_hz * capacitance_per_node * toggles;
}

}  // namespace spsta::power
