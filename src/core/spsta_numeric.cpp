#include <algorithm>

#include "core/compiled_design.hpp"
#include "core/patterns.hpp"
#include "core/spsta.hpp"
#include "obs/metrics.hpp"
#include "sigprob/four_value_prop.hpp"
#include "stats/conv_kernels.hpp"
#include "stats/simd.hpp"
#include "stats/workspace.hpp"
#include "util/thread_pool.hpp"

namespace spsta::core {

using netlist::FourValueProbs;
using netlist::NodeId;
using stats::PiecewiseDensity;

namespace {

/// Trapezoid running integral into \p c: c[0] = 0,
/// c[i] = c[i-1] + dt * (v[i-1] + v[i]) / 2 — the same accumulation order
/// as PiecewiseDensity::cumulative, so CDF products match the reference
/// operators bit for bit.
void cumulative_into(std::span<const double> v, double dt, std::span<double> c) {
  if (v.empty()) return;
  const double* pv = v.data();
  double* pc = c.data();
  pc[0] = 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    acc += 0.5 * (pv[i - 1] + pv[i]) * dt;
    pc[i] = acc;
  }
}

}  // namespace

SpstaNumericResult run_spsta_numeric(const CompiledDesign& plan,
                                     std::span<const netlist::SourceStats> source_stats,
                                     const SpstaOptions& options) {
  plan.check_source_stats(source_stats, "run_spsta_numeric");
  const std::span<const NodeId> sources = plan.timing_sources();

  SpstaNumericResult result;
  {
    static obs::LatencyHistogram& grid_hist =
        obs::registry().histogram("stage.numeric.grid");
    const obs::StageTimer timer(grid_hist);
    result.grid = plan.grid_for(source_stats, options);
  }
  result.node.assign(plan.node_count(), NodeTopDensity{});
  for (auto& n : result.node) {
    n.rise = PiecewiseDensity::zero(result.grid);
    n.fall = PiecewiseDensity::zero(result.grid);
  }

  for (std::size_t i = 0; i < sources.size(); ++i) {
    const netlist::SourceStats& st =
        source_stats.size() == 1 ? source_stats[0] : source_stats[i];
    NodeTopDensity& top = result.node[sources[i]];
    top.probs = st.probs.normalized();
    top.rise = PiecewiseDensity::from_gaussian(st.rise_arrival, result.grid, top.probs.pr);
    top.fall = PiecewiseDensity::from_gaussian(st.fall_arrival, result.grid, top.probs.pf);
  }

  // Every combinational node's SUM-with-delay operator, discretized once
  // per run, deduplicated across nodes, with FFT half-spectra precomputed
  // for this grid size — shared by every pattern and thread of the run.
  const DelayKernelSet kernels =
      build_delay_kernel_set(plan, result.grid.dt, result.grid.n);

  // Gate evaluation is level-parallel: a node's fanins live in strictly
  // lower levels, so every node of one level reads finished state and
  // writes only its own slot — results are identical at any thread count.
  // All per-node math runs on the shared grid in per-thread Workspace
  // scratch (pure, fully overwritten), so the level loop performs zero
  // steady-state heap allocations and stays schedule-independent.
  const auto eval_node = [&](NodeId id) {
    if (!plan.combinational(id)) return;
    const std::span<const NodeId> fanins = plan.fanins(id);
    const netlist::GateType type = plan.type(id);

    NodeTopDensity& top = result.node[id];
    thread_local std::vector<FourValueProbs> fanin_probs;
    thread_local std::vector<SwitchPattern> patterns;
    fanin_probs.clear();
    for (NodeId f : fanins) fanin_probs.push_back(result.node[f].probs);
    top.probs = sigprob::gate_four_value(type, fanin_probs);

    if (fanins.empty()) return;  // constants: zero densities stay

    enumerate_switch_patterns(type, fanin_probs, patterns);

    // Resolve the thread's arena and the SIMD tier once per node, then
    // pass both through every kernel call — no thread_local or dispatch
    // lookups inside the pattern loop (workspace.hpp's contract).
    stats::Workspace& ws = stats::Workspace::local();
    const stats::simd::Ops& v = stats::simd::ops();
    const std::size_t gn = result.grid.n;
    const double dt = result.grid.dt;
    const std::span<double> rise_acc = ws.scratch(0, gn);
    const std::span<double> fall_acc = ws.scratch(1, gn);
    const std::span<double> fold = ws.scratch(2, gn);
    const std::span<double> contrib = ws.scratch(3, gn);
    const std::span<double> cum_fold = ws.scratch(4, gn);
    const std::span<double> cum_con = ws.scratch(5, gn);
    std::fill(rise_acc.begin(), rise_acc.end(), 0.0);
    std::fill(fall_acc.begin(), fall_acc.end(), 0.0);
    bool any_rise = false;
    bool any_fall = false;

    for (const SwitchPattern& p : patterns) {
      if (p.weight == 0.0) continue;
      // Fold the switching inputs' normalized arrivals with exact
      // independent MAX/MIN (CDF products) on the shared grid.
      bool first = true;
      for (std::size_t i = 0; i < fanins.size(); ++i) {
        if (!(p.switching_mask & (1u << i))) continue;
        const NodeTopDensity& in = result.node[fanins[i]];
        const PiecewiseDensity& d = (p.rising_mask & (1u << i)) ? in.rise : in.fall;
        const double m = d.mass();
        const double inv = m > 0.0 ? 1.0 / m : 1.0;
        const double* pv = d.values().data();
        if (first) {
          v.mul_scale(pv, inv, fold.data(), gn);
          first = false;
          continue;
        }
        v.mul_scale(pv, inv, contrib.data(), gn);
        cumulative_into(fold, dt, cum_fold);
        cumulative_into(contrib, dt, cum_con);
        if (p.op == SettleOp::Max) {
          v.cdf_mix_max(fold.data(), contrib.data(), cum_fold.data(),
                        cum_con.data(), gn);
        } else {
          v.cdf_mix_min(fold.data(), contrib.data(), cum_fold.data(),
                        cum_con.data(), gn);
        }
      }
      if (first) continue;  // no switching inputs in this scenario

      // Weighted sum over switching scenarios (paper Eq. 8/11), fused.
      double* acc = (p.output_rising ? rise_acc : fall_acc).data();
      v.axpy(fold.data(), p.weight, acc, gn);
      (p.output_rising ? any_rise : any_fall) = true;
    }

    // One batched SUM-with-delay per node: both transition columns share
    // the plan and (when the delay model dedups) the kernel spectrum.
    stats::ConvExec ex;
    ex.ws = &ws;
    if (any_rise) {
      ex.src[ex.cols] = rise_acc;
      ex.dst[ex.cols] = top.rise.mutable_values();
      ex.kernel[ex.cols] = &kernels.rise(id);
      ++ex.cols;
    }
    if (any_fall) {
      ex.src[ex.cols] = fall_acc;
      ex.dst[ex.cols] = top.fall.mutable_values();
      ex.kernel[ex.cols] = &kernels.fall(id);
      ++ex.cols;
    }
    if (ex.cols > 0) stats::conv_execute(ex);
  };

  static obs::LatencyHistogram& stage_hist =
      obs::registry().histogram("stage.numeric.propagate");
  const obs::StageTimer timer(stage_hist);
  util::ThreadPool pool(options.threads);
  for (std::size_t level = 0; level < plan.level_count(); ++level) {
    const std::span<const NodeId> group = plan.level_nodes(level);
    pool.for_each_index(group.size(),
                        [&](std::size_t k) { eval_node(group[k]); });
  }
  return result;
}

SpstaNumericResult run_spsta_numeric(const netlist::Netlist& design,
                                     const netlist::DelayModel& delays,
                                     std::span<const netlist::SourceStats> source_stats,
                                     const SpstaOptions& options) {
  return run_spsta_numeric(CompiledDesign(design, delays), source_stats, options);
}

}  // namespace spsta::core
