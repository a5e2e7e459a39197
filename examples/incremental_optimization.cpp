// Incremental timing-driven "gate sizing" loop: the optimization workload
// block-based SSTA exists for. Repeatedly find the most critical endpoint,
// walk its structurally critical path, speed up the slowest gate on it,
// and re-evaluate — each iteration touching only the changed fanout cone
// through the plan's incremental engine (its SSTA arrivals). Also shows the SPSTA yield improving as
// the critical path shrinks.
//
//   $ ./example_incremental_optimization [circuit]     (default: s386)

#include <cmath>
#include <cstdio>
#include <string>

#include "core/compiled_design.hpp"
#include "core/incremental_spsta.hpp"
#include "core/spsta.hpp"
#include "core/yield.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/graph.hpp"
#include "netlist/iscas89.hpp"
#include "ssta/node_criticality.hpp"

int main(int argc, char** argv) {
  using namespace spsta;

  const std::string which = argc > 1 ? argv[1] : "s386";
  const netlist::Netlist design = netlist::make_paper_circuit(which);
  const std::vector<netlist::SourceStats> sc{netlist::scenario_I()};

  // Start from a load-aware cell library.
  const netlist::CellLibrary lib = netlist::CellLibrary::parse(R"(
NAND    0.90 0.05 0.08
NOR     0.95 0.05 0.08
AND     1.10 0.06 0.10
OR      1.10 0.06 0.10
NOT     0.45 0.02 0.05
BUFF    0.40 0.02 0.05
default 1.00 0.05 0.05
)");
  // The plan owns the delays; the incremental engine edits them in place.
  core::CompiledDesign plan(design, lib.apply(design));
  const netlist::DelayModel& delays = plan.delays();
  core::IncrementalSpsta inc(plan, sc, /*settle_eps=*/0.0);
  std::printf("optimizing %s (%zu gates)\n\n", design.name().c_str(),
              design.gate_count());
  std::printf("%-5s  %-10s  %-14s  %-14s  %-12s\n", "iter", "WNS-endpoint",
              "worst mu+3sig", "resized gate", "cone visited");

  constexpr int kIterations = 12;
  std::uint64_t last_count = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    // Worst endpoint by mu + 3 sigma of the rising arrival.
    netlist::NodeId worst = design.timing_endpoints().front();
    double worst_q = -1e300;
    for (netlist::NodeId ep : design.timing_endpoints()) {
      const stats::Gaussian& g = inc.ssta()[ep].rise;
      const double q = g.mean + 3.0 * g.stddev();
      if (q > worst_q) {
        worst_q = q;
        worst = ep;
      }
    }

    // Resize target: the gate with the largest statistical-criticality x
    // delay product (tightness-cascade criticality, not just the one
    // structural path — a gate on many near-critical paths scores higher).
    const ssta::NodeCriticality crit =
        ssta::compute_node_criticality(design, delays, sc);
    netlist::NodeId slowest = netlist::kInvalidNode;
    double best_score = 0.3;  // stop when nothing slow is critical anymore
    for (netlist::NodeId id = 0; id < design.node_count(); ++id) {
      if (!netlist::is_combinational(design.node(id).type)) continue;
      const double score = crit.criticality[id] * delays.delay(id).mean;
      if (score > best_score) {
        best_score = score;
        slowest = id;
      }
    }
    if (slowest == netlist::kInvalidNode) break;

    // "Upsize": 30% faster, slightly tighter sigma.
    const stats::Gaussian old_delay = delays.delay(slowest);
    const stats::Gaussian new_delay{0.7 * old_delay.mean, 0.5 * old_delay.var};
    inc.set_delay(slowest, new_delay);
    (void)inc.ssta();

    std::printf("%-5d  %-10s  %-14.3f  %-14s  %llu\n", iter,
                design.node(worst).name.c_str(), worst_q,
                design.node(slowest).name.c_str(),
                static_cast<unsigned long long>(inc.ssta_reevaluated() - last_count));
    last_count = inc.ssta_reevaluated();
  }

  std::printf("\ntotal nodes re-evaluated: %llu (vs %d full passes = %llu)\n",
              static_cast<unsigned long long>(inc.ssta_reevaluated()), kIterations,
              static_cast<unsigned long long>(kIterations * design.node_count()));

  // Yield before/after from the SPSTA numeric engine.
  const core::SpstaNumericResult before = core::run_spsta_numeric(
      design, lib.apply(design), sc);
  const core::SpstaNumericResult after = core::run_spsta_numeric(design, delays, sc);
  const double t_target =
      core::period_for_yield(design, before, 0.99, 0.0, 50.0);
  std::printf("yield at T=%.2f: before %.4f -> after %.4f\n", t_target,
              core::timing_yield(design, before, t_target),
              core::timing_yield(design, after, t_target));
  return 0;
}
