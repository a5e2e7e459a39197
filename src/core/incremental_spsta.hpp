/// \file incremental_spsta.hpp
/// Incremental SPSTA: the property the paper's background prizes in
/// block-based SSTA ("efficient, incremental, and suitable for
/// optimization") carried over to the signal-probability engine. After a
/// local change — a gate delay, a source's value probabilities or arrival
/// statistics — only the transitive fanout cone is re-propagated, and the
/// update stops early where both the four-value probabilities and the
/// rise/fall tops settle.
///
/// The ECO hot path (DESIGN.md §17) adds two warm-edit surfaces on top of
/// the lazy single-edit engine:
///   * transactions — begin_eco() / N edits / commit() coalesce a batch
///     into one merged dirty frontier and a single propagation wave;
///   * what-if probes — probe(edits, targets) answers "what would these
///     arrivals be under those edits" against a backward-cone-restricted
///     wave: the probe's delays sit in a read-only overlay the wave
///     consults before the plan, and an O(cone) undo log restores the
///     overwritten states, so the plan and the state stay bitwise
///     untouched.
///
/// A wave drains the dirty frontier level by level on the caller's thread,
/// writing each changed node in place; a level's nodes read only lower
/// levels, so the order within a level does not matter.
///
/// The same engine serves block-based SSTA (ssta()): a second arrival
/// array over the same plan, built by one full pass on the first read and
/// afterwards updated over the SSTA cone of the delay and source-arrival
/// edits made since the previous read, through the same drain loop.
/// Commits, probes and moment reads never touch it.

#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/spsta.hpp"
#include "core/ssta_kernel.hpp"
#include "util/dirty_frontier.hpp"

namespace spsta::core {

class CompiledDesign;

/// Incremental SPSTA session over a compiled plan. The plan is the one
/// owner of the delays: set_delay writes through to it, and the engine
/// keeps only the per-node state derived from them.
class IncrementalSpsta {
 public:
  /// Default settle tolerance: propagation past a recomputed node stops
  /// when its state moved by no more than this per component.
  static constexpr double kDefaultSettleEps = 1e-12;

  /// One edit of a transaction or probe batch.
  struct EcoEdit {
    enum class Kind : std::uint8_t { kDelay, kSource };
    Kind kind = Kind::kDelay;
    netlist::NodeId node = 0;       ///< kDelay: the gate whose delay changes
    std::size_t source_index = 0;   ///< kSource: index into timing_sources()
    stats::Gaussian delay;          ///< kDelay payload
    netlist::SourceStats source;    ///< kSource payload

    [[nodiscard]] static EcoEdit delay_edit(netlist::NodeId node,
                                            const stats::Gaussian& delay) {
      EcoEdit e;
      e.kind = Kind::kDelay;
      e.node = node;
      e.delay = delay;
      return e;
    }
    [[nodiscard]] static EcoEdit source_edit(std::size_t source_index,
                                             const netlist::SourceStats& source) {
      EcoEdit e;
      e.kind = Kind::kSource;
      e.source_index = source_index;
      e.source = source;
      return e;
    }
  };

  /// Cost accounting of one propagation wave (a commit or a probe).
  struct CommitStats {
    std::uint64_t cone_size = 0;      ///< nodes re-evaluated by the wave
    std::uint64_t settled_early = 0;  ///< re-evaluated nodes that settled
  };

  /// What a probe answers: one NodeTop per requested target, plus the
  /// restricted wave's cost.
  struct ProbeResult {
    std::vector<NodeTop> tops;
    CommitStats stats;
  };

  /// Runs the initial full analysis (run_spsta_moment over \p plan — the
  /// same kernel every later wave uses). \p settle_eps
  /// controls early stopping: 0 demands exact (bitwise) settlement, making
  /// every update sequence bit-identical to a fresh full run — the mode
  /// the analysis service uses so ECO re-queries match cold re-analysis
  /// exactly.
  ///
  /// The engine keeps a reference to \p plan, which must outlive it. Delay
  /// edits to the plan must go through this engine: once the plan's
  /// delay_epoch() moves by a write the engine did not make, every read
  /// (node / flush / probe / commit) throws std::logic_error instead of
  /// answering from state the edit made stale.
  IncrementalSpsta(CompiledDesign& plan,
                   std::span<const netlist::SourceStats> source_stats,
                   double settle_eps = kDefaultSettleEps);

  /// Current state at \p id, lazily updating any dirty fanin cone.
  /// Throws std::logic_error while a transaction is open.
  [[nodiscard]] const NodeTop& node(netlist::NodeId id);
  /// Updates all dirty nodes and returns the full state.
  /// Throws std::logic_error while a transaction is open.
  [[nodiscard]] const std::vector<NodeTop>& flush();

  /// Block-based SSTA arrivals over the same plan, bit-identical to
  /// ssta::run_ssta at settle_eps 0. The first call runs one full pass
  /// seeded from the engine's source states; each later call re-evaluates
  /// only the SSTA cone of the delay and source-arrival edits made since
  /// the previous call, stopping where an arrival settles within
  /// settle_eps. Throws std::logic_error while a transaction is open or
  /// once the plan's delays were edited outside this engine.
  [[nodiscard]] const std::vector<NodeArrival>& ssta();

  /// Changes one gate's delay distribution in the plan (clearing any
  /// per-direction override, as CompiledDesign::set_delay does). The gate
  /// is re-evaluated unless neither direction's effective delay moved
  /// beyond settle_eps. Inside a transaction the edit joins the batched
  /// frontier; outside it stays a lazy single edit (propagated on the
  /// next read).
  void set_delay(netlist::NodeId id, const stats::Gaussian& delay);
  /// Changes one timing source's statistics (probabilities and arrivals);
  /// dirties its fanout cone. Index follows design.timing_sources(). The
  /// SSTA cone is dirtied only when an arrival moved beyond settle_eps.
  void set_source_stats(std::size_t source_index, const netlist::SourceStats& stats);

  /// Opens a transaction: subsequent edits accumulate into one merged
  /// dirty frontier instead of each paying its own wave, and reads throw
  /// until commit(). Throws std::logic_error when already open.
  void begin_eco();
  /// Closes the transaction with a single propagation wave over the merged
  /// frontier; returns that wave's cost. Throws when no transaction is
  /// open.
  CommitStats commit();
  /// True between begin_eco() and commit().
  [[nodiscard]] bool in_transaction() const noexcept { return in_txn_; }

  /// What-if mode: evaluates \p edits, propagating only the part of the
  /// dirty cone that can reach \p targets (their backward closure), reads
  /// the targets, then restores the state from an O(cone) undo log. The
  /// edits' delays are held in a local overlay and never written to the
  /// plan, so the plan (delays, delay_epoch, kernels) and the state are
  /// bitwise unchanged afterwards. Requires no open transaction; pending
  /// lazy edits are flushed first so the probe baseline is the committed
  /// state.
  [[nodiscard]] ProbeResult probe(std::span<const EcoEdit> edits,
                                  std::span<const netlist::NodeId> targets);

  /// Nodes re-evaluated by updates since construction (probes included).
  [[nodiscard]] std::uint64_t nodes_reevaluated() const noexcept {
    return nodes_reevaluated_;
  }
  /// Nodes the SSTA updates re-evaluated since construction (the first
  /// read's full pass is not counted).
  [[nodiscard]] std::uint64_t ssta_reevaluated() const noexcept {
    return ssta_reevaluated_;
  }

 private:
  /// A probe's delay edits, one per node (last edit wins), sorted by node.
  using DelayOverlay = std::vector<std::pair<netlist::NodeId, stats::Gaussian>>;

  void require_no_txn(const char* what) const;
  /// Throws std::logic_error when the plan's delays moved by a write this
  /// engine did not make.
  void require_in_sync(const char* what) const;
  void mark_dirty(netlist::NodeId id);
  void apply_source(netlist::NodeId src, const netlist::SourceStats& stats);
  /// Drains the moment frontier. \p mask restricts marking to ids
  /// with mask[id] != 0 (the probe's backward cone); \p undo_tops records
  /// every overwritten NodeTop for revert; \p overlay supplies delays that
  /// take precedence over the plan's (the probe's edits).
  CommitStats propagate_wave(const std::vector<char>* mask,
                             std::vector<std::pair<netlist::NodeId, NodeTop>>* undo_tops,
                             const DelayOverlay& overlay);
  void propagate_dirty();
  /// Backward closure of \p targets as a node mask, memoized per distinct
  /// target set (topology-only, so edits never invalidate it).
  const std::vector<char>& target_mask(std::span<const netlist::NodeId> targets);

  CompiledDesign& plan_;
  /// plan_.delay_epoch() as this engine's own writes have left it.
  std::uint64_t plan_epoch_;
  std::vector<NodeTop> state_;
  util::DirtyFrontier frontier_;
  bool in_txn_ = false;
  std::uint64_t nodes_reevaluated_ = 0;
  double settle_eps_ = kDefaultSettleEps;

  /// SSTA arrivals; empty until the first ssta() read.
  std::vector<NodeArrival> arrival_;
  /// Gates and source fanouts whose SSTA arrival is stale; keyed and
  /// marked only once arrival_ exists.
  util::DirtyFrontier ssta_frontier_;
  std::uint64_t ssta_reevaluated_ = 0;

  /// One drained level's ids, reused across waves (no steady-state
  /// allocation).
  std::vector<std::uint32_t> wave_ids_;

  /// Memoized backward-cone masks for probe target sets (small: probes
  /// overwhelmingly ask for the same endpoint set).
  struct MaskEntry {
    std::vector<netlist::NodeId> targets;
    std::vector<char> mask;
  };
  static constexpr std::size_t kMaxMaskEntries = 8;
  std::vector<MaskEntry> mask_cache_;
};

}  // namespace spsta::core
