/// \file compiled_design.hpp
/// The reusable analysis plan: everything the engines re-derive from a
/// `(Netlist, DelayModel)` pair on every call, compiled once and shared by
/// every subsequent run — the amortization layer behind the `Analyzer`
/// facade (spsta_api.hpp) and the service session store.
///
/// A `CompiledDesign` is an immutable topology plus the one mutable delay
/// model of an analysis. The topology never changes after construction:
///
///  * the levelization with per-level node ranges laid out contiguously
///    (one flat array + offsets — the unit of level-parallel dispatch),
///  * structure-of-arrays fanin/fanout adjacency (flat index + offset
///    arrays instead of chasing per-node `std::vector`s),
///  * cached timing sources / endpoints and per-node combinational flags.
///
/// Switch patterns are not part of the plan: they depend only on a gate's
/// support signature, so the engines share one process-wide template
/// table across every plan (patterns.hpp).
///
/// The delay model is the only delay state an analysis has: `Analyzer`
/// and `IncrementalSpsta` both read and edit it here. `set_delay` patches
/// it in place and bumps `delay_epoch()`; nothing topological is rebuilt.
/// The delay-derived products — the numeric grid's structural delay span,
/// the content hash and the numeric engine's delay kernels
/// (`build_delay_kernel_set`) — are computed on read, so they can never go
/// stale. The plan holds no cache and no lock.
///
/// Thread model: concurrent runs over one plan are safe (runs only read
/// it). `set_delay` must not race a run.
///
/// Every engine gains a `run_*(const CompiledDesign&, ...)` overload that
/// skips all structural work; the legacy `(Netlist, DelayModel, ...)`
/// overloads are thin compile-then-run wrappers over this type.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/delay_model.hpp"
#include "netlist/four_value.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "stats/conv_kernels.hpp"
#include "stats/piecewise.hpp"

namespace spsta::core {

struct SpstaOptions;

/// Per-(gate, transition) delay kernels discretized on one grid step —
/// the numeric engine's SUM-with-delay operators, built once per numeric
/// run (`build_delay_kernel_set`) and shared by every pattern and thread of
/// that run.
///
/// Kernels are deduplicated by the (mean, var) bit patterns of the
/// underlying Gaussian delays — a uniform delay model collapses to one
/// unique kernel per direction — and each node indexes into the unique
/// pool. When built for a known grid size, the unique kernels
/// additionally carry their FFT half-spectra precomputed for that size
/// (under `kMaxSpectraBytes`), so the numeric engine's batched
/// convolutions skip the kernel transform entirely. Spectra are built
/// with the exact function the on-the-fly path uses, so precomputation
/// changes cost, never a result bit.
struct DelayKernelSet {
  double dt = 0.0;
  std::size_t spec_grid_n = 0;  ///< grid size the spectra were built for (0 = none)
  std::vector<stats::DelayKernel> kernels;            ///< unique kernels
  std::vector<std::uint32_t> rise_index, fall_index;  ///< NodeId -> kernels

  [[nodiscard]] const stats::DelayKernel& rise(netlist::NodeId id) const {
    return kernels[rise_index[id]];
  }
  [[nodiscard]] const stats::DelayKernel& fall(netlist::NodeId id) const {
    return kernels[fall_index[id]];
  }
};

/// Per-(netlist, delay model) analysis plan: immutable topology, one
/// mutable delay model.
///
/// Lifetime: holds a reference to \p design (which must outlive the plan)
/// and owns its delay model.
class CompiledDesign {
 public:
  CompiledDesign(const netlist::Netlist& design, netlist::DelayModel delays);

  [[nodiscard]] const netlist::Netlist& design() const noexcept { return *design_; }
  [[nodiscard]] const netlist::DelayModel& delays() const noexcept { return delays_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return combinational_.size(); }

  /// Sets one node's common delay (clearing its per-direction overrides,
  /// as DelayModel::set_delay does) and bumps delay_epoch(). Topology and
  /// adjacency are untouched. Throws std::invalid_argument for a bad id.
  /// Must not race a run over this plan.
  void set_delay(netlist::NodeId id, const stats::Gaussian& delay);
  /// Number of set_delay calls so far — lets a reader that caches
  /// delay-derived state (IncrementalSpsta) detect edits it did not make.
  [[nodiscard]] std::uint64_t delay_epoch() const noexcept { return delay_epoch_; }

  // -- Levelization ---------------------------------------------------
  /// All nodes in topological order (the legacy Levelization view, kept
  /// for engines that walk serially or need per-node levels).
  [[nodiscard]] const netlist::Levelization& levelization() const noexcept {
    return levels_;
  }
  /// Combinational depth in gate counts.
  [[nodiscard]] std::size_t depth() const noexcept { return levels_.depth; }
  /// Number of levels (depth + 1; 0 for an empty design).
  [[nodiscard]] std::size_t level_count() const noexcept {
    return level_offsets_.empty() ? 0 : level_offsets_.size() - 1;
  }
  /// Nodes of one level, contiguous in memory — the unit of parallel gate
  /// evaluation (a node's fanins live in strictly lower levels).
  [[nodiscard]] std::span<const netlist::NodeId> level_nodes(std::size_t level) const {
    return {level_order_.data() + level_offsets_[level],
            level_offsets_[level + 1] - level_offsets_[level]};
  }

  // -- Structure-of-arrays adjacency ----------------------------------
  [[nodiscard]] std::span<const netlist::NodeId> fanins(netlist::NodeId id) const {
    return {fanin_arena_.data() + fanin_offsets_[id],
            fanin_offsets_[id + 1] - fanin_offsets_[id]};
  }
  [[nodiscard]] std::span<const netlist::NodeId> fanouts(netlist::NodeId id) const {
    return {fanout_arena_.data() + fanout_offsets_[id],
            fanout_offsets_[id + 1] - fanout_offsets_[id]};
  }
  /// True for logic gates and constants (nodes the propagation loops
  /// evaluate; sources and DFFs carry externally supplied state).
  [[nodiscard]] bool combinational(netlist::NodeId id) const {
    return combinational_[id] != 0;
  }
  [[nodiscard]] netlist::GateType type(netlist::NodeId id) const { return type_[id]; }

  [[nodiscard]] std::span<const netlist::NodeId> timing_sources() const noexcept {
    return timing_sources_;
  }
  [[nodiscard]] std::span<const netlist::NodeId> timing_endpoints() const noexcept {
    return timing_endpoints_;
  }

  // -- Structural delay-span products (numeric engine grid) ------------
  /// Worst-case structural delay under mean gate delays (the longest
  /// endpoint path). Computed on read: one O(nodes + edges) DP.
  [[nodiscard]] double structural_delay() const;
  /// Largest per-gate delay standard deviation in the model. Computed on
  /// read.
  [[nodiscard]] double max_delay_stddev() const;
  /// The numeric-engine grid for the given sources and options — the same
  /// arithmetic the legacy engine performed per run, with the structural
  /// scan done over the plan's adjacency. Bit-identical to the legacy
  /// choice.
  [[nodiscard]] stats::GridSpec grid_for(
      std::span<const netlist::SourceStats> source_stats,
      const SpstaOptions& options) const;

  /// FNV-1a content hash over the netlist structure (names, types, fanins,
  /// output/DFF markings) and the observable delay assignment. Equal
  /// inputs hash equal across runs and platforms; any netlist or delay
  /// change produces a different hash (modulo 64-bit collisions) — the
  /// key the service session store files plans and results under.
  /// Computed on read.
  [[nodiscard]] std::uint64_t content_hash() const;

  /// Throws std::invalid_argument unless \p source_stats has exactly one
  /// entry (broadcast) or one per timing source — the shared precondition
  /// of every engine.
  void check_source_stats(std::span<const netlist::SourceStats> source_stats,
                          const char* who) const;

 private:
  const netlist::Netlist* design_;
  netlist::DelayModel delays_;

  netlist::Levelization levels_;
  std::vector<netlist::NodeId> level_order_;   ///< nodes grouped by level
  std::vector<std::size_t> level_offsets_;     ///< level L = [offsets[L], offsets[L+1])

  std::vector<netlist::NodeId> fanin_arena_;
  std::vector<std::size_t> fanin_offsets_;
  std::vector<netlist::NodeId> fanout_arena_;
  std::vector<std::size_t> fanout_offsets_;
  std::vector<char> combinational_;
  std::vector<netlist::GateType> type_;

  std::vector<netlist::NodeId> timing_sources_;
  std::vector<netlist::NodeId> timing_endpoints_;

  std::uint64_t delay_epoch_ = 0;
};

/// Upper bound on precomputed-spectrum bytes per kernel set; unique
/// kernels past the budget fall back to on-the-fly spectra (same bits,
/// more work).
inline constexpr std::size_t kMaxSpectraBytes = std::size_t{64} << 20;

/// Discretized Gaussian delay kernels for every combinational node of
/// \p plan on grid step \p dt (sigmas fixed at 8.0 — the engine's tail
/// coverage), deduplicated across nodes in node order. When \p grid_n (the
/// engine's grid point count) is nonzero, the unique kernels that would
/// take the FFT path at that size also carry precomputed half-spectra, in
/// intern order, until `kMaxSpectraBytes` runs out. A kernel is a pure
/// function of (delay, dt), so two sets built from equal delays are
/// bit-identical.
[[nodiscard]] DelayKernelSet build_delay_kernel_set(const CompiledDesign& plan,
                                                    double dt, std::size_t grid_n = 0);

}  // namespace spsta::core
