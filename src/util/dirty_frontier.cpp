#include "util/dirty_frontier.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace spsta::util {

void DirtyFrontier::reset(std::vector<std::uint32_t> level_of) {
  level_of_ = std::move(level_of);
  dirty_.assign(level_of_.size(), 0);
  std::uint32_t max_level = 0;
  for (const std::uint32_t lv : level_of_) max_level = std::max(max_level, lv);
  buckets_.resize(level_of_.empty() ? 0 : std::size_t{max_level} + 1);
  for (auto& bucket : buckets_) bucket.clear();
  pending_ = 0;
  lo_ = hi_ = 0;
}

bool DirtyFrontier::mark(std::uint32_t id) {
  if (id >= dirty_.size()) {
    throw std::out_of_range("DirtyFrontier::mark: id out of range");
  }
  if (dirty_[id]) return false;
  dirty_[id] = 1;
  const std::size_t level = level_of_[id];
  buckets_[level].push_back(id);
  if (pending_ == 0) {
    lo_ = hi_ = level;
  } else {
    lo_ = std::min(lo_, level);
    hi_ = std::max(hi_, level);
  }
  ++pending_;
  return true;
}

std::size_t DirtyFrontier::first_level() const {
  std::size_t level = lo_;
  while (level < hi_ && buckets_[level].empty()) ++level;
  return level;
}

void DirtyFrontier::take_level(std::size_t level, std::vector<std::uint32_t>& out) {
  out.clear();
  if (level >= buckets_.size()) return;
  std::vector<std::uint32_t>& bucket = buckets_[level];
  out.swap(bucket);
  // The swapped-in `bucket` holds out's old storage, cleared for reuse.
  bucket.clear();
  for (const std::uint32_t id : out) dirty_[id] = 0;
  pending_ -= out.size();
  if (pending_ != 0 && level >= lo_) lo_ = level + 1;
}

}  // namespace spsta::util
