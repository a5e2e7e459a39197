/// \file dirty_frontier.hpp
/// Level-bucketed dirty-set bookkeeping of the incremental timing engine
/// (`core::IncrementalSpsta`), which keeps one frontier for its moment
/// state and one for its SSTA arrivals. The dirty set is handed back one
/// *level at a time*, in mark order, and a propagation wave re-evaluates
/// each level before any mark it makes on the next (DESIGN.md §17).
///
/// The helper is topology-agnostic: it knows nothing about netlists, only a
/// per-node level assignment. The invariant callers must keep is the one the
/// level order gives them for free: while draining level L via take_level(),
/// new marks may only target levels > L (fanouts live at strictly higher
/// levels).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spsta::util {

/// Dirty-node set bucketed by topological level.
///
/// mark() is O(1) amortized and deduplicating; take_level() hands back one
/// level's marked ids in mark order and clears their flags. A [lo, hi]
/// level window brackets the non-empty buckets so a drain never scans the
/// whole level range.
class DirtyFrontier {
 public:
  DirtyFrontier() = default;

  /// Keys the frontier to a topology: level_of[id] is node id's level.
  explicit DirtyFrontier(std::vector<std::uint32_t> level_of) {
    reset(std::move(level_of));
  }

  /// Re-keys to a (possibly different) topology and drops all marks.
  void reset(std::vector<std::uint32_t> level_of);

  /// Marks \p id dirty. Returns true when the id was newly marked (false:
  /// already pending). Ids must be < the level_of size the frontier was
  /// keyed with.
  bool mark(std::uint32_t id);

  /// True while any mark is pending.
  [[nodiscard]] bool any() const noexcept { return pending_ != 0; }

  /// Pending marks right now.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// True when \p id is currently marked.
  [[nodiscard]] bool marked(std::uint32_t id) const { return dirty_[id] != 0; }

  /// Lowest level with pending marks. Only valid while any() is true.
  [[nodiscard]] std::size_t first_level() const;

  /// Moves level \p level's marked ids (in mark order) into \p out
  /// (replacing its contents) and clears their dirty flags. While the
  /// caller processes the batch, new marks must target higher levels only.
  void take_level(std::size_t level, std::vector<std::uint32_t>& out);

 private:
  std::vector<std::uint32_t> level_of_;
  std::vector<char> dirty_;
  /// One id list per level; a bucket's storage is recycled across waves.
  std::vector<std::vector<std::uint32_t>> buckets_;
  std::size_t pending_ = 0;
  std::size_t lo_ = 0;  ///< lowest possibly-non-empty bucket
  std::size_t hi_ = 0;  ///< highest non-empty bucket
};

}  // namespace spsta::util
