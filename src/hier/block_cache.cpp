#include "hier/block_cache.hpp"

#include "netlist/bench_io.hpp"
#include "obs/metrics.hpp"
#include "util/fnv1a.hpp"

namespace spsta::hier {

std::shared_ptr<const BlockTimingModel> BlockModelCache::find(std::uint64_t signature) {
  std::shared_ptr<const BlockTimingModel> found;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = models_.find(signature);
    if (it != models_.end()) {
      lru_.splice(lru_.end(), lru_, it->second.lru);  // most recently used
      found = it->second.model;
    }
  }
  if (found) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("hier.block_cache.hits").add();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("hier.block_cache.misses").add();
  }
  return found;
}

void BlockModelCache::insert(std::shared_ptr<const BlockTimingModel> model) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t signature = model->signature;
  const auto it = models_.find(signature);
  if (it != models_.end()) {
    // Concurrent extraction raced us; the models are bit-identical, keep
    // the newcomer and refresh recency.
    bytes_ -= it->second.model->approx_bytes();
    bytes_ += model->approx_bytes();
    it->second.model = std::move(model);
    lru_.splice(lru_.end(), lru_, it->second.lru);
  } else {
    const auto lru = lru_.insert(lru_.end(), signature);
    bytes_ += model->approx_bytes();
    models_.emplace(signature, Entry{std::move(model), lru});
  }
  enforce_budget_locked();
  obs::registry().gauge("hier.block_cache.bytes").set(static_cast<double>(bytes_));
}

void BlockModelCache::set_budget(BlockCacheBudget budget) {
  const std::lock_guard<std::mutex> lock(mutex_);
  budget_ = budget;
  enforce_budget_locked();
}

BlockCacheBudget BlockModelCache::budget() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return budget_;
}

std::size_t BlockModelCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return models_.size();
}

std::size_t BlockModelCache::approx_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

void BlockModelCache::enforce_budget_locked() {
  const auto over = [&] {
    return (budget_.max_models != 0 && models_.size() > budget_.max_models) ||
           (budget_.max_bytes != 0 && bytes_ > budget_.max_bytes);
  };
  // Never evict the most recently touched entry, even over budget — the
  // same keep-the-trigger rule as the session store.
  while (over() && models_.size() > 1) {
    const std::uint64_t victim = lru_.front();
    lru_.pop_front();
    const auto it = models_.find(victim);
    bytes_ -= it->second.model->approx_bytes();
    models_.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("hier.block_cache.evictions").add();
  }
}

std::shared_ptr<const CompiledBlock> BlockLibrary::intern(const netlist::Netlist& block) {
  // Content key: the canonical serialized form, independent of how the
  // netlist object was built (parser, generator, flatten).
  const std::string text = netlist::write_bench(block);
  const std::uint64_t key = util::fnv1a(text);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = blocks_.find(key);
    if (it != blocks_.end()) {
      if (auto alive = it->second.lock()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        obs::registry().counter("hier.block_library.hits").add();
        return alive;
      }
    }
  }

  // Compile outside the lock: interning must not stall other hierarchies.
  auto entry = std::make_shared<CompiledBlock>(block);

  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = blocks_.find(key);
  if (it != blocks_.end()) {
    if (auto alive = it->second.lock()) {
      // A concurrent intern won the compile race; share its plan rather
      // than keeping a duplicate.
      hits_.fetch_add(1, std::memory_order_relaxed);
      obs::registry().counter("hier.block_library.hits").add();
      return alive;
    }
  }
  blocks_[key] = entry;
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs::registry().counter("hier.block_library.compiles").add();
  return entry;
}

std::size_t BlockLibrary::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return blocks_.size();
}

}  // namespace spsta::hier
