#include "ssta/ssta.hpp"

#include "core/compiled_design.hpp"

namespace spsta::ssta {

using netlist::NodeId;

SstaResult run_ssta(const core::CompiledDesign& plan,
                    std::span<const netlist::SourceStats> source_stats) {
  plan.check_source_stats(source_stats, "run_ssta");
  const std::span<const NodeId> sources = plan.timing_sources();

  SstaResult result;
  result.arrival.assign(plan.node_count(), NodeArrival{});
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const netlist::SourceStats& st =
        source_stats.size() == 1 ? source_stats[0] : source_stats[i];
    result.arrival[sources[i]] = {st.rise_arrival, st.fall_arrival};
  }
  core::propagate_all_arrivals(plan, result.arrival);
  return result;
}

SstaResult run_ssta(const netlist::Netlist& design, const netlist::DelayModel& delays,
                    std::span<const netlist::SourceStats> source_stats) {
  return run_ssta(core::CompiledDesign(design, delays), source_stats);
}

}  // namespace spsta::ssta
