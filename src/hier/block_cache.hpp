/// \file block_cache.hpp
/// The block-model cache and the compiled-block library — the two sharing
/// layers that make hierarchical analysis cheap at scale (DESIGN.md §14):
///
///  * BlockLibrary interns compiled blocks by content hash, so a daemon
///    serving many variants of a design compiles each unique block netlist
///    ONCE (the hierarchical counterpart of the service's session/plan
///    store, §13).
///  * BlockModelCache holds extracted BlockTimingModels keyed by the exact
///    model_signature (block x engine x options x normalized input stats),
///    LRU-evicted against an entry/byte budget like the session store.
///
/// Both are internally synchronized and safe to share across sessions and
/// worker threads. Counters surface through obs ("hier.block_cache.*") and
/// the service `stats` command.

#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/compiled_design.hpp"
#include "hier/block_model.hpp"
#include "netlist/delay_model.hpp"
#include "netlist/netlist.hpp"

namespace spsta::hier {

/// Entry/byte budget for BlockModelCache eviction. 0 = unlimited.
struct BlockCacheBudget {
  std::size_t max_models = 0;
  std::size_t max_bytes = 0;
};

/// LRU cache of extracted block timing models, keyed by model_signature.
/// Exact-bitwise keys keep a hit bit-identical to re-extraction.
class BlockModelCache {
 public:
  /// The model for \p signature, refreshing its LRU position; nullptr on
  /// miss. Counts a hit or miss.
  [[nodiscard]] std::shared_ptr<const BlockTimingModel> find(std::uint64_t signature);

  /// Inserts (or refreshes) a model under model->signature and enforces
  /// the budget. Concurrent extractors of the same signature may both
  /// insert; the models are bit-identical, so last-writer-wins is benign.
  void insert(std::shared_ptr<const BlockTimingModel> model);

  void set_budget(BlockCacheBudget budget);
  [[nodiscard]] BlockCacheBudget budget() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t approx_bytes() const;
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  void enforce_budget_locked();

  mutable std::mutex mutex_;
  struct Entry {
    std::shared_ptr<const BlockTimingModel> model;
    std::list<std::uint64_t>::iterator lru;
  };
  std::unordered_map<std::uint64_t, Entry> models_;
  std::list<std::uint64_t> lru_;  ///< front = least recently used
  BlockCacheBudget budget_;
  std::size_t bytes_ = 0;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// One interned block: the netlist and the CompiledDesign plan built over
/// it, whose unit delay model is the block's only one. Heap-pinned
/// (shared_ptr) and immovable so the plan's reference to the netlist stays
/// valid for the entry's whole lifetime.
struct CompiledBlock {
  explicit CompiledBlock(const netlist::Netlist& block)
      : design(block), plan(design, netlist::DelayModel::unit(design)),
        hash(plan.content_hash()) {}
  CompiledBlock(const CompiledBlock&) = delete;
  CompiledBlock& operator=(const CompiledBlock&) = delete;

  netlist::Netlist design;
  core::CompiledDesign plan;  ///< points into design: declared after it
  std::uint64_t hash = 0;     ///< plan content hash (netlist + delays)

  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return 4096 + design.node_count() * 1024;
  }
};

/// Content-hash-interned compiled blocks: two hierarchies (or two service
/// sessions) whose blocks serialize identically share ONE plan. Never
/// evicts on its own — entries die when the last hierarchy using them
/// releases its shared_ptr.
class BlockLibrary {
 public:
  /// Interns \p block under its serialized content (unit delay model).
  /// Compiles only on first sight of the content.
  [[nodiscard]] std::shared_ptr<const CompiledBlock> intern(const netlist::Netlist& block);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  /// Weak entries: the library never keeps a block alive by itself.
  std::unordered_map<std::uint64_t, std::weak_ptr<const CompiledBlock>> blocks_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace spsta::hier
