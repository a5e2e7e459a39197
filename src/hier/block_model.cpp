#include "hier/block_model.hpp"

#include <stdexcept>

#include "util/fnv1a.hpp"

namespace spsta::hier {

std::uint64_t model_signature(std::uint64_t block_hash, Engine engine,
                              const core::SpstaOptions& options,
                              std::span<const netlist::SourceStats> normalized_sources) noexcept {
  std::uint64_t h = util::fnv1a_word(block_hash, util::kFnvOffset);
  h = util::fnv1a_word(static_cast<std::uint64_t>(engine), h);
  // Bit patterns, not values: a cache hit must be bit-identical to
  // re-extraction, so -0.0 and 0.0 are different keys.
  if (engine == Engine::SpstaNumeric) {
    h = util::fnv1a_double(options.grid_dt, h);
    h = util::fnv1a_double(options.grid_pad_sigma, h);
    h = util::fnv1a_word(options.max_grid_points, h);
  }
  for (const netlist::SourceStats& s : normalized_sources) {
    for (const double v : {s.probs.p0, s.probs.p1, s.probs.pr, s.probs.pf,
                           s.rise_arrival.mean, s.rise_arrival.var, s.fall_arrival.mean,
                           s.fall_arrival.var}) {
      h = util::fnv1a_double(v, h);
    }
  }
  return h;
}

BlockTimingModel extract_block_model(const core::CompiledDesign& plan, Engine engine,
                                     std::span<const netlist::SourceStats> sources,
                                     const core::SpstaOptions& options) {
  BlockTimingModel model;
  const auto& outputs = plan.design().primary_outputs();
  model.outputs.reserve(outputs.size());
  switch (engine) {
    case Engine::SpstaMoment: {
      const core::SpstaResult result = core::run_spsta_moment(plan, sources, options);
      for (const netlist::NodeId out : outputs) {
        const core::NodeTop& top = result.node[out];
        model.outputs.push_back({top.probs, top.rise, top.fall});
      }
      break;
    }
    case Engine::SpstaNumeric: {
      const core::SpstaNumericResult result = core::run_spsta_numeric(plan, sources, options);
      for (const netlist::NodeId out : outputs) {
        const core::NodeTopDensity& top = result.node[out];
        PortTop port;
        port.probs = top.probs;
        // Boundary Gaussianization: the density's (mass, mean, variance)
        // is all that crosses the interface — the kNumericAbsEps term of
        // the accuracy contract.
        port.rise.mass = top.rise.mass();
        if (port.rise.mass > 0.0) {
          port.rise.arrival = {top.rise.mean(), top.rise.variance()};
        }
        port.fall.mass = top.fall.mass();
        if (port.fall.mass > 0.0) {
          port.fall.arrival = {top.fall.mean(), top.fall.variance()};
        }
        model.outputs.push_back(std::move(port));
      }
      break;
    }
    default:
      throw std::invalid_argument(
          "extract_block_model: only spsta_moment and spsta_numeric extract block models");
  }
  return model;
}

}  // namespace spsta::hier
