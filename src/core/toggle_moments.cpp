#include "core/toggle_moments.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netlist/levelize.hpp"
#include "sigprob/boolean_difference.hpp"
#include "sigprob/signal_prob.hpp"

namespace spsta::core {

using netlist::NodeId;

std::size_t ToggleMoments::index(std::size_t a, std::size_t b) const noexcept {
  if (a < b) std::swap(a, b);
  return a * (a + 1) / 2 + b;
}

double ToggleMoments::covariance(NodeId a, NodeId b) const {
  return cov_.at(index(a, b));
}

double ToggleMoments::correlation(NodeId a, NodeId b) const {
  const double va = variance(a);
  const double vb = variance(b);
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return covariance(a, b) / std::sqrt(va * vb);
}

void ToggleMoments::set_covariance(NodeId a, NodeId b, double c) {
  cov_.at(index(a, b)) = c;
}

ToggleMoments propagate_toggle_moments(const netlist::Netlist& design,
                                       std::span<const double> source_probs,
                                       std::span<const SourceToggle> source_toggle) {
  const std::vector<NodeId> sources = design.timing_sources();
  if ((source_toggle.size() != sources.size() && source_toggle.size() != 1)) {
    throw std::invalid_argument("propagate_toggle_moments: source toggle count mismatch");
  }
  const std::size_t n = design.node_count();
  ToggleMoments out(n);

  const std::vector<double> prob =
      sigprob::propagate_signal_probabilities(design, source_probs);

  for (std::size_t i = 0; i < sources.size(); ++i) {
    const SourceToggle& st = source_toggle.size() == 1 ? source_toggle[0] : source_toggle[i];
    out.set_mean(sources[i], st.mean);
    out.set_covariance(sources[i], sources[i], st.var);
  }

  const netlist::Levelization lv = netlist::levelize(design);
  std::vector<double> fanin_probs;
  std::vector<double> row(n);
  for (NodeId id : lv.order) {
    const netlist::Node& node = design.node(id);
    if (!netlist::is_combinational(node.type)) continue;

    fanin_probs.clear();
    for (NodeId f : node.fanins) fanin_probs.push_back(prob[f]);
    const std::vector<double> w =
        sigprob::boolean_difference_probabilities(node.type, fanin_probs);

    // Mean (Eq. 13 line 1).
    double mean = 0.0;
    for (std::size_t i = 0; i < node.fanins.size(); ++i) {
      mean += w[i] * out.mean(node.fanins[i]);
    }
    out.set_mean(id, mean);

    // Covariance row against every net (Eq. 13 line 3); the self entry
    // var(y) = sum w_i w_j cov(x_i, x_j) falls out of the same fold.
    std::fill(row.begin(), row.end(), 0.0);
    for (std::size_t i = 0; i < node.fanins.size(); ++i) {
      const NodeId f = node.fanins[i];
      for (std::size_t z = 0; z < n; ++z) {
        row[z] += w[i] * out.covariance(f, static_cast<NodeId>(z));
      }
    }
    double var = 0.0;
    for (std::size_t i = 0; i < node.fanins.size(); ++i) {
      var += w[i] * row[node.fanins[i]];
    }
    for (std::size_t z = 0; z < n; ++z) {
      if (z != id) out.set_covariance(id, static_cast<NodeId>(z), row[z]);
    }
    out.set_covariance(id, id, std::max(var, 0.0));
  }
  return out;
}

}  // namespace spsta::core
