#include "core/compiled_design.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "core/spsta.hpp"
#include "stats/workspace.hpp"
#include "util/fnv1a.hpp"

namespace spsta::core {

using netlist::NodeId;

namespace {

/// The content hash's FNV-1a seed: the standard offset basis
/// 14695981039346656037 with its last decimal digit dropped. Kept so every
/// content hash keeps its value.
constexpr std::uint64_t kContentHashSeed = 1469598103934665603ull;

void mix(std::uint64_t& h, std::uint64_t word) { h = util::fnv1a_word(word, h); }

void mix_gaussian(std::uint64_t& h, const stats::Gaussian& g) {
  h = util::fnv1a_double(g.mean, h);
  h = util::fnv1a_double(g.var, h);
}

}  // namespace

CompiledDesign::CompiledDesign(const netlist::Netlist& design,
                               netlist::DelayModel delays)
    : design_(&design), delays_(std::move(delays)), levels_(netlist::levelize(design)) {
  if (delays_.size() != design.node_count()) {
    throw std::invalid_argument(
        "CompiledDesign: delay model sized for a different netlist (" +
        std::to_string(delays_.size()) + " delays, " +
        std::to_string(design.node_count()) + " nodes)");
  }
  const std::size_t n = design.node_count();

  // Flat levelization: bucket lv.order stably by level so level_nodes(L)
  // enumerates exactly the same nodes in the same order as the legacy
  // level_groups(lv)[L] — a prerequisite for bit-identical parallel runs.
  level_offsets_.assign(n == 0 ? 1 : levels_.depth + 2, 0);
  for (NodeId id = 0; id < n; ++id) ++level_offsets_[levels_.level[id] + 1];
  for (std::size_t l = 1; l < level_offsets_.size(); ++l) {
    level_offsets_[l] += level_offsets_[l - 1];
  }
  level_order_.resize(n);
  {
    std::vector<std::size_t> cursor(level_offsets_.begin(), level_offsets_.end() - 1);
    for (NodeId id : levels_.order) level_order_[cursor[levels_.level[id]]++] = id;
  }

  // Structure-of-arrays adjacency + per-node flags.
  fanin_offsets_.assign(n + 1, 0);
  fanout_offsets_.assign(n + 1, 0);
  combinational_.assign(n, 0);
  type_.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    const netlist::Node& node = design.node(id);
    fanin_offsets_[id + 1] = fanin_offsets_[id] + node.fanins.size();
    fanout_offsets_[id + 1] = fanout_offsets_[id] + node.fanouts.size();
    combinational_[id] = netlist::is_combinational(node.type) ? 1 : 0;
    type_[id] = node.type;
  }
  fanin_arena_.reserve(fanin_offsets_.back());
  fanout_arena_.reserve(fanout_offsets_.back());
  for (NodeId id = 0; id < n; ++id) {
    const netlist::Node& node = design.node(id);
    fanin_arena_.insert(fanin_arena_.end(), node.fanins.begin(), node.fanins.end());
    fanout_arena_.insert(fanout_arena_.end(), node.fanouts.begin(), node.fanouts.end());
  }

  timing_sources_ = design.timing_sources();
  timing_endpoints_ = design.timing_endpoints();
}

void CompiledDesign::set_delay(NodeId id, const stats::Gaussian& delay) {
  if (id >= node_count()) {
    throw std::invalid_argument("CompiledDesign::set_delay: bad node id " +
                                std::to_string(id));
  }
  delays_.set_delay(id, delay);
  ++delay_epoch_;
}

double CompiledDesign::structural_delay() const {
  // One forward longest-path DP in place of a per-endpoint critical_paths
  // scan; the recurrence (arrival = max fanin arrival + mean delay) is the
  // one critical_path_to evaluates, so the maximum is bit-identical.
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const std::vector<double> means = delays_.means();
  std::vector<double> arrival(node_count(), kNegInf);
  for (NodeId id : levels_.order) {
    if (combinational_[id] == 0 || fanins(id).empty()) {
      arrival[id] = 0.0;  // sources and constants
      continue;
    }
    double best = kNegInf;
    for (NodeId f : fanins(id)) best = std::max(best, arrival[f]);
    arrival[id] = best + means[id];
  }
  double worst = 0.0;
  for (NodeId id : timing_endpoints_) {
    worst = std::max(worst, arrival[id] == kNegInf ? 0.0 : arrival[id]);
  }
  return worst;
}

double CompiledDesign::max_delay_stddev() const {
  double worst = 0.0;
  for (NodeId id = 0; id < node_count(); ++id) {
    worst = std::max(worst, delays_.delay(id).stddev());
  }
  return worst;
}

std::uint64_t CompiledDesign::content_hash() const {
  // Netlist structure (names, types, wiring, output/DFF markings) plus the
  // observable delay assignment. Field tags keep adjacent variable-length
  // sections from aliasing.
  const netlist::Netlist& design = *design_;
  const std::size_t n = node_count();
  std::uint64_t h = kContentHashSeed;
  mix(h, n);
  for (NodeId id = 0; id < n; ++id) {
    const netlist::Node& node = design.node(id);
    mix(h, static_cast<std::uint64_t>(node.type));
    mix(h, node.name.size());
    h = util::fnv1a(node.name, h);
    mix(h, node.fanins.size());
    for (NodeId f : node.fanins) mix(h, f);
  }
  mix(h, 0x6f757470u);  // outputs section
  mix(h, design.primary_outputs().size());
  for (NodeId id : design.primary_outputs()) mix(h, id);
  mix(h, 0x64656c61u);  // delay section
  for (NodeId id = 0; id < n; ++id) {
    mix_gaussian(h, delays_.delay(id));
    mix(h, delays_.is_directional(id) ? 1 : 0);
    mix_gaussian(h, delays_.delay(id, true));
    mix_gaussian(h, delays_.delay(id, false));
  }
  return h;
}

stats::GridSpec CompiledDesign::grid_for(
    std::span<const netlist::SourceStats> source_stats,
    const SpstaOptions& options) const {
  // Mirrors the legacy numeric engine's choose_grid exactly (expression
  // for expression) with the structural scan replaced by the
  // structural_delay() / max_delay_stddev() / depth products.
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const netlist::SourceStats& st : source_stats) {
    for (const stats::Gaussian& g : {st.rise_arrival, st.fall_arrival}) {
      const double sd = g.stddev();
      const double a = g.mean - options.grid_pad_sigma * sd;
      const double b = g.mean + options.grid_pad_sigma * sd;
      if (first) {
        lo = a;
        hi = b;
        first = false;
      } else {
        lo = std::min(lo, a);
        hi = std::max(hi, b);
      }
    }
  }
  hi += structural_delay() + options.grid_pad_sigma * max_delay_stddev() *
                                 std::sqrt(double(levels_.depth) + 1.0);

  double dt = options.grid_dt > 0.0 ? options.grid_dt : 0.05;
  // Degenerate span (a single deterministic arrival and zero structural
  // delay): widen by one step so dt never collapses to 0.
  if (!(hi > lo)) hi = lo + dt;
  std::size_t n = static_cast<std::size_t>(std::ceil((hi - lo) / dt)) + 1;
  // Clamp the cap to >= 2 so the dt recomputation never divides by n-1==0.
  const std::size_t cap = std::max<std::size_t>(options.max_grid_points, 2);
  if (n > cap) {
    n = cap;
    dt = (hi - lo) / static_cast<double>(n - 1);
  }
  // Floor of 8 points for a usable density, unless the cap is tighter.
  return {lo, dt, std::max(n, std::min<std::size_t>(cap, 8))};
}

DelayKernelSet build_delay_kernel_set(const CompiledDesign& plan, double dt,
                                      std::size_t grid_n) {
  DelayKernelSet set;
  set.dt = dt;
  const std::size_t n = plan.node_count();
  set.rise_index.assign(n, 0);
  set.fall_index.assign(n, 0);
  // Dedup kernels on the exact bit patterns of (mean, var): a uniform
  // delay model yields one unique kernel per direction instead of one
  // per node, which is what makes per-kernel spectra affordable.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> unique;
  const auto intern = [&](const stats::Gaussian& g) -> std::uint32_t {
    const std::pair<std::uint64_t, std::uint64_t> gk{
        std::bit_cast<std::uint64_t>(g.mean), std::bit_cast<std::uint64_t>(g.var)};
    if (const auto it = unique.find(gk); it != unique.end()) return it->second;
    const auto idx = static_cast<std::uint32_t>(set.kernels.size());
    set.kernels.push_back(stats::make_delay_kernel(g, dt));
    unique.emplace(gk, idx);
    return idx;
  };
  for (NodeId id = 0; id < n; ++id) {
    if (!plan.combinational(id)) continue;
    set.rise_index[id] = intern(plan.delays().delay(id, /*rising=*/true));
    set.fall_index[id] = intern(plan.delays().delay(id, /*rising=*/false));
  }
  if (grid_n > 0) {
    // Precompute each FFT-path kernel's half-spectrum at the size the
    // engine will use, in deterministic (intern) order, until the byte
    // budget runs out. Skipped kernels take the on-the-fly path with
    // bit-identical results.
    stats::Workspace& ws = stats::Workspace::local();
    std::size_t bytes = 0;
    for (stats::DelayKernel& k : set.kernels) {
      const std::size_t fft_n = stats::delay_fft_size(grid_n, k);
      if (fft_n == 0) continue;
      const std::size_t cost = 2 * (fft_n / 2 + 1) * sizeof(double);
      if (bytes + cost > kMaxSpectraBytes) continue;
      stats::precompute_kernel_spectrum(k, fft_n, ws);
      bytes += cost;
    }
    set.spec_grid_n = grid_n;
  }
  return set;
}

void CompiledDesign::check_source_stats(
    std::span<const netlist::SourceStats> source_stats, const char* who) const {
  if (source_stats.size() != timing_sources_.size() && source_stats.size() != 1) {
    throw std::invalid_argument(std::string(who) + ": source stats count mismatch");
  }
}

}  // namespace spsta::core
