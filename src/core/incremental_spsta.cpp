#include "core/incremental_spsta.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/compiled_design.hpp"
#include "obs/metrics.hpp"

namespace spsta::core {

using netlist::NodeId;

namespace {

// With eps == 0 these demand exact (bitwise) equality, so skipped
// propagation can never diverge from a fresh full run.
bool nearly_equal(const stats::Gaussian& a, const stats::Gaussian& b, double eps) {
  return std::abs(a.mean - b.mean) <= eps && std::abs(a.var - b.var) <= eps;
}

bool nearly_equal(const TransitionTop& a, const TransitionTop& b, double eps) {
  // third_central matters: a wave can shift only the skew term (mean/var
  // bitwise unchanged), and voting it "settled" would strand a stale third
  // moment downstream.
  return std::abs(a.mass - b.mass) <= eps &&
         std::abs(a.third_central - b.third_central) <= eps &&
         nearly_equal(a.arrival, b.arrival, eps);
}

bool nearly_equal(const netlist::FourValueProbs& a, const netlist::FourValueProbs& b,
                  double eps) {
  return std::abs(a.p0 - b.p0) <= eps && std::abs(a.p1 - b.p1) <= eps &&
         std::abs(a.pr - b.pr) <= eps && std::abs(a.pf - b.pf) <= eps;
}

bool nearly_equal(const NodeTop& a, const NodeTop& b, double eps) {
  return nearly_equal(a.probs, b.probs, eps) && nearly_equal(a.rise, b.rise, eps) &&
         nearly_equal(a.fall, b.fall, eps);
}

bool nearly_equal(const NodeArrival& a, const NodeArrival& b, double eps) {
  return nearly_equal(a.rise, b.rise, eps) && nearly_equal(a.fall, b.fall, eps);
}

/// The one no-op rule of set_delay and probe: setting the common delay
/// \p delay (which clears per-direction overrides) changes nothing only
/// when neither direction's effective delay moves beyond \p eps.
bool delay_moves(const stats::Gaussian& rise, const stats::Gaussian& fall,
                 const stats::Gaussian& delay, double eps) {
  return !nearly_equal(rise, delay, eps) || !nearly_equal(fall, delay, eps);
}

NodeTop source_top(const netlist::SourceStats& st) {
  NodeTop top;
  top.probs = st.probs.normalized();
  top.rise = {top.probs.pr, st.rise_arrival};
  top.fall = {top.probs.pf, st.fall_arrival};
  return top;
}

/// Levels narrowed to the frontier's key type.
std::vector<std::uint32_t> narrow_levels(const std::vector<std::size_t>& level) {
  std::vector<std::uint32_t> out(level.size());
  for (std::size_t i = 0; i < level.size(); ++i) {
    out[i] = static_cast<std::uint32_t>(level[i]);
  }
  return out;
}

/// Marks \p id's combinational fanouts in \p frontier; \p mask, when
/// given, restricts marking to ids with mask[id] != 0.
void mark_fanouts(const CompiledDesign& plan, util::DirtyFrontier& frontier, NodeId id,
                  const std::vector<char>* mask) {
  for (const NodeId fo : plan.fanouts(id)) {
    if (!plan.combinational(fo)) continue;
    if (mask != nullptr && (*mask)[fo] == 0) continue;
    (void)frontier.mark(fo);
  }
}

/// The one drain loop of the moment and SSTA state arrays: takes the
/// frontier's lowest dirty level and re-evaluates its nodes in mark order
/// with \p eval. A node whose value moved beyond \p eps is journaled in
/// \p undo (when given), written in place, and its fanouts are marked
/// through \p mask. Every fanin sits at a strictly lower level, so writing
/// in place reads exactly what evaluating the level against its
/// pre-level state would.
template <class Value, class Eval>
IncrementalSpsta::CommitStats drain(const CompiledDesign& plan,
                                    util::DirtyFrontier& frontier,
                                    std::vector<std::uint32_t>& ids,
                                    std::vector<Value>& values, double eps,
                                    const std::vector<char>* mask,
                                    std::vector<std::pair<NodeId, Value>>* undo,
                                    const Eval& eval) {
  IncrementalSpsta::CommitStats stats;
  while (frontier.any()) {
    frontier.take_level(frontier.first_level(), ids);
    stats.cone_size += ids.size();
    for (const NodeId id : ids) {
      const Value updated = eval(id);
      if (nearly_equal(updated, values[id], eps)) {
        ++stats.settled_early;
        continue;
      }
      if (undo != nullptr) undo->emplace_back(id, values[id]);
      values[id] = updated;
      mark_fanouts(plan, frontier, id, mask);
    }
  }
  return stats;
}

}  // namespace

IncrementalSpsta::IncrementalSpsta(CompiledDesign& plan,
                                   std::span<const netlist::SourceStats> source_stats,
                                   double settle_eps)
    : plan_(plan), plan_epoch_(plan.delay_epoch()), settle_eps_(settle_eps) {
  if (!(settle_eps_ >= 0.0)) {
    throw std::invalid_argument("IncrementalSpsta: settle_eps must be >= 0");
  }
  state_ = run_spsta_moment(plan_, source_stats).node;
  frontier_.reset(narrow_levels(plan_.levelization().level));
}

void IncrementalSpsta::require_no_txn(const char* what) const {
  if (in_txn_) {
    throw std::logic_error(std::string("IncrementalSpsta::") + what +
                           ": transaction open (commit first)");
  }
}

void IncrementalSpsta::require_in_sync(const char* what) const {
  if (plan_.delay_epoch() != plan_epoch_) {
    throw std::logic_error(std::string("IncrementalSpsta::") + what +
                           ": the plan's delays were edited outside this engine");
  }
}

void IncrementalSpsta::mark_dirty(NodeId id) { (void)frontier_.mark(id); }

void IncrementalSpsta::apply_source(NodeId src, const netlist::SourceStats& stats) {
  state_[src] = source_top(stats);
}

IncrementalSpsta::CommitStats IncrementalSpsta::propagate_wave(
    const std::vector<char>* mask, std::vector<std::pair<NodeId, NodeTop>>* undo_tops,
    const DelayOverlay& overlay) {
  static obs::Counter& cone_counter = obs::registry().counter("incremental.cone_size");
  static obs::Counter& settled_counter =
      obs::registry().counter("incremental.settled_early");

  const CommitStats stats =
      drain(plan_, frontier_, wave_ids_, state_, settle_eps_, mask, undo_tops,
            [&](NodeId id) {
              const auto edited = std::lower_bound(
                  overlay.begin(), overlay.end(), id,
                  [](const auto& entry, NodeId node) { return entry.first < node; });
              const bool probed = edited != overlay.end() && edited->first == id;
              return propagate_node_top(
                  plan_, id, state_,
                  probed ? edited->second : plan_.delays().delay(id, true),
                  probed ? edited->second : plan_.delays().delay(id, false));
            });
  nodes_reevaluated_ += stats.cone_size;
  cone_counter.add(stats.cone_size);
  settled_counter.add(stats.settled_early);
  return stats;
}

void IncrementalSpsta::propagate_dirty() {
  if (!frontier_.any()) return;
  (void)propagate_wave(nullptr, nullptr, {});
}

const NodeTop& IncrementalSpsta::node(NodeId id) {
  require_no_txn("node");
  require_in_sync("node");
  propagate_dirty();
  return state_.at(id);
}

const std::vector<NodeTop>& IncrementalSpsta::flush() {
  require_no_txn("flush");
  require_in_sync("flush");
  propagate_dirty();
  return state_;
}

const std::vector<NodeArrival>& IncrementalSpsta::ssta() {
  require_no_txn("ssta");
  require_in_sync("ssta");
  if (arrival_.empty()) {
    // First read: one full pass, seeded from the source states this engine
    // already holds (a source top's conditional arrivals are the source's
    // SSTA arrivals).
    arrival_.assign(plan_.node_count(), NodeArrival{});
    for (const NodeId src : plan_.timing_sources()) {
      arrival_[src] = {state_[src].rise.arrival, state_[src].fall.arrival};
    }
    propagate_all_arrivals(plan_, arrival_);
    ssta_frontier_.reset(narrow_levels(plan_.levelization().level));
    return arrival_;
  }
  const CommitStats stats = drain<NodeArrival>(
      plan_, ssta_frontier_, wave_ids_, arrival_, settle_eps_, /*mask=*/nullptr,
      /*undo=*/nullptr, [&](NodeId id) { return propagate_gate_arrival(plan_, id, arrival_); });
  ssta_reevaluated_ += stats.cone_size;
  return arrival_;
}

void IncrementalSpsta::set_delay(NodeId id, const stats::Gaussian& delay) {
  if (id >= plan_.node_count()) {
    throw std::invalid_argument("IncrementalSpsta::set_delay: bad node id");
  }
  const netlist::DelayModel& delays = plan_.delays();
  const bool moved =
      delay_moves(delays.delay(id, true), delays.delay(id, false), delay, settle_eps_);
  // The owner is always written, so the plan and this engine never
  // disagree about a delay — only whether the gate re-evaluates depends
  // on the no-op rule.
  plan_.set_delay(id, delay);
  ++plan_epoch_;
  if (moved && plan_.combinational(id)) {
    mark_dirty(id);
    if (!arrival_.empty()) (void)ssta_frontier_.mark(id);
  }
}

void IncrementalSpsta::set_source_stats(std::size_t source_index,
                                        const netlist::SourceStats& stats) {
  const std::span<const NodeId> sources = plan_.timing_sources();
  if (source_index >= sources.size()) {
    throw std::invalid_argument("IncrementalSpsta::set_source_stats: bad index");
  }
  const NodeId src = sources[source_index];
  apply_source(src, stats);
  mark_fanouts(plan_, frontier_, src, nullptr);
  if (!arrival_.empty()) {
    // SSTA is input-oblivious: a probability-only edit leaves its cone be.
    const NodeArrival arrival{stats.rise_arrival, stats.fall_arrival};
    if (!nearly_equal(arrival, arrival_[src], settle_eps_)) {
      mark_fanouts(plan_, ssta_frontier_, src, nullptr);
    }
    arrival_[src] = arrival;
  }
}

void IncrementalSpsta::begin_eco() {
  require_no_txn("begin_eco");
  in_txn_ = true;
}

IncrementalSpsta::CommitStats IncrementalSpsta::commit() {
  if (!in_txn_) {
    throw std::logic_error("IncrementalSpsta::commit: no open transaction");
  }
  in_txn_ = false;
  require_in_sync("commit");
  static obs::Counter& commits = obs::registry().counter("incremental.commits");
  commits.add();
  return propagate_wave(nullptr, nullptr, {});
}

const std::vector<char>& IncrementalSpsta::target_mask(
    std::span<const NodeId> targets) {
  for (const NodeId t : targets) {
    if (t >= plan_.node_count()) {
      throw std::invalid_argument("IncrementalSpsta::probe: bad target node id");
    }
  }
  for (const MaskEntry& entry : mask_cache_) {
    if (entry.targets.size() == targets.size() &&
        std::equal(entry.targets.begin(), entry.targets.end(), targets.begin())) {
      return entry.mask;
    }
  }
  // Backward closure over fanins: every node whose state a target's
  // recomputation can (transitively) read. Edits outside this mask cannot
  // change any target, so the probe wave skips them entirely.
  MaskEntry entry;
  entry.targets.assign(targets.begin(), targets.end());
  entry.mask.assign(plan_.node_count(), 0);
  std::vector<NodeId> stack(targets.begin(), targets.end());
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (entry.mask[id] != 0) continue;
    entry.mask[id] = 1;
    for (const NodeId fi : plan_.fanins(id)) stack.push_back(fi);
  }
  if (mask_cache_.size() >= kMaxMaskEntries) mask_cache_.erase(mask_cache_.begin());
  mask_cache_.push_back(std::move(entry));
  return mask_cache_.back().mask;
}

IncrementalSpsta::ProbeResult IncrementalSpsta::probe(
    std::span<const EcoEdit> edits, std::span<const NodeId> targets) {
  require_no_txn("probe");
  require_in_sync("probe");
  // The probe baseline is the settled committed state: flush pending lazy
  // edits first so the undo log only ever carries probe-local changes.
  propagate_dirty();
  const std::vector<char>& mask = target_mask(targets);

  static obs::Counter& probes = obs::registry().counter("incremental.probes");
  probes.add();

  // Validate the whole batch first, so a bad edit leaves nothing behind.
  const std::span<const NodeId> sources = plan_.timing_sources();
  for (const EcoEdit& edit : edits) {
    if (edit.kind == EcoEdit::Kind::kDelay && edit.node >= plan_.node_count()) {
      throw std::invalid_argument("IncrementalSpsta::probe: bad node id");
    }
    if (edit.kind == EcoEdit::Kind::kSource && edit.source_index >= sources.size()) {
      throw std::invalid_argument("IncrementalSpsta::probe: bad source index");
    }
  }

  // Delay edits go into the overlay, never into the plan. A stable sort
  // keeps each node's edits in batch order, so set_delay's no-op rule runs
  // along each node's chain of edits and probe(edits) answers exactly what
  // commit(edits)-then-query would; the last edit per node is kept.
  DelayOverlay overlay;
  for (const EcoEdit& edit : edits) {
    if (edit.kind == EcoEdit::Kind::kDelay) overlay.emplace_back(edit.node, edit.delay);
  }
  std::stable_sort(overlay.begin(), overlay.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    const NodeId id = overlay[i].first;
    const bool chained = i > 0 && overlay[i - 1].first == id;
    if (delay_moves(chained ? overlay[i - 1].second : plan_.delays().delay(id, true),
                    chained ? overlay[i - 1].second : plan_.delays().delay(id, false),
                    overlay[i].second, settle_eps_) &&
        plan_.combinational(id) && mask[id] != 0) {
      mark_dirty(id);
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    if (i + 1 == overlay.size() || overlay[i + 1].first != overlay[i].first) {
      overlay[kept++] = overlay[i];
    }
  }
  overlay.resize(kept);

  // Source edits overwrite state, journaled for the revert.
  std::vector<std::pair<NodeId, NodeTop>> undo_tops;
  for (const EcoEdit& edit : edits) {
    if (edit.kind != EcoEdit::Kind::kSource) continue;
    const NodeId src = sources[edit.source_index];
    undo_tops.emplace_back(src, state_[src]);
    apply_source(src, edit.source);
    mark_fanouts(plan_, frontier_, src, &mask);
  }

  ProbeResult result;
  result.stats = propagate_wave(&mask, &undo_tops, overlay);
  result.tops.reserve(targets.size());
  for (const NodeId t : targets) result.tops.push_back(state_[t]);

  // Revert: restore overwritten tops newest-first (a node edited twice
  // lands on its oldest snapshot). The frontier drained inside the wave,
  // so no marks survive the probe.
  for (auto it = undo_tops.rbegin(); it != undo_tops.rend(); ++it) {
    state_[it->first] = it->second;
  }
  return result;
}

}  // namespace spsta::core
