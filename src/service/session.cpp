#include "service/session.hpp"

#include <charconv>
#include <cstdio>
#include <utility>

#include "obs/metrics.hpp"

namespace spsta::service {

std::string hash_key(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::optional<std::uint64_t> parse_hash_key(std::string_view key) noexcept {
  if (key.size() != 16) return std::nullopt;
  std::uint64_t h = 0;
  const auto [end, ec] = std::from_chars(key.data(), key.data() + key.size(), h, 16);
  if (ec != std::errc{} || end != key.data() + key.size()) return std::nullopt;
  return h;
}

Session::Session(std::string key_, netlist::Netlist design_)
    : key(std::move(key_)), display_name(design_.name()) {
  // Built in the body, not the init list: the delay model and the expanded
  // source vector both read `design_` before it is moved into the Analyzer.
  netlist::DelayModel delays = netlist::DelayModel::unit(design_);
  std::vector<netlist::SourceStats> sources(design_.timing_sources().size(),
                                            netlist::scenario_I());
  // The Analyzer compiles its plan here, outside any store lock, so every
  // analyze (from any client of this content hash) starts warm.
  analyzer = std::make_unique<Analyzer>(std::move(design_), std::move(delays),
                                        std::move(sources));
  // Footprint estimate: levelization/adjacency arenas, delay span and one
  // resident result all scale with node count. Switch patterns live in the
  // process-wide template table, bounded on its own (core/patterns.hpp).
  approx_bytes = 4096 + design().node_count() * 1024;
}

Session::Session(std::string key_, netlist::HierDesign design_,
                 const hier::HierAnalyzerOptions& hier_options)
    : key(std::move(key_)), display_name(design_.name()) {
  // Compiles every unique block (through the shared library) and resolves
  // the composition graph — the hierarchical analogue of the eager plan
  // compile above, likewise latch-protected by the store.
  hier_analyzer = std::make_unique<hier::HierAnalyzer>(std::move(design_), hier_options);
  approx_bytes = hier_analyzer->approx_bytes();
}

core::IncrementalSpsta& Session::warm_incremental() {
  if (!incremental) {
    // Exact settlement: every update sequence stays bit-identical to a
    // fresh full moment-engine run. Built over the analyzer's plan, so the
    // engine and every other engine read the one delay model.
    incremental = std::make_unique<core::IncrementalSpsta>(
        analyzer->plan(), analyzer->sources(), /*settle_eps=*/0.0);
  }
  return *incremental;
}

core::IncrementalSpsta::CommitStats Session::apply_eco(
    std::span<const core::IncrementalSpsta::EcoEdit> edits) {
  // Build the warm engine from the pre-edit state, so the batch is a
  // cone-limited update rather than a full re-analysis. One transaction:
  // N edits merge into a single dirty frontier and one propagation wave.
  core::IncrementalSpsta& inc = warm_incremental();
  // Cleared up front: even a batch that throws half-way has moved state.
  cache.clear();
  inc.begin_eco();
  core::IncrementalSpsta::CommitStats stats;
  try {
    for (const core::IncrementalSpsta::EcoEdit& edit : edits) {
      if (edit.kind == core::IncrementalSpsta::EcoEdit::Kind::kDelay) {
        inc.set_delay(edit.node, edit.delay);  // writes the analyzer's plan
      } else {
        analyzer->set_source(edit.source_index, edit.source);
        inc.set_source_stats(edit.source_index, edit.source);
      }
    }
    stats = inc.commit();
  } catch (...) {
    // Never leave the transaction open: a poisoned engine would turn every
    // later read on this session into a logic_error.
    if (inc.in_transaction()) (void)inc.commit();
    throw;
  }
  ++eco_version;
  eco_edits += edits.size();
  return stats;
}

core::IncrementalSpsta::ProbeResult Session::probe_eco(
    std::span<const core::IncrementalSpsta::EcoEdit> edits,
    std::span<const netlist::NodeId> targets) {
  return warm_incremental().probe(edits, targets);
}

std::pair<std::shared_ptr<Session>, bool> SessionStore::load(
    std::uint64_t content_hash, const DesignFactory& make_design) {
  return load(content_hash, [&make_design](const std::string& key) {
    return std::make_shared<Session>(key, make_design());
  });
}

std::pair<std::shared_ptr<Session>, bool> SessionStore::load(
    std::uint64_t content_hash, const SessionFactory& make_session) {
  const std::string key = hash_key(content_hash);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const auto it = sessions_.find(key);
      if (it == sessions_.end()) break;  // absent: this thread builds
      if (it->second != nullptr) {
        // Ready: the cross-session plan-cache hit path.
        touch_lru(key);
        plan_hits_.fetch_add(1, std::memory_order_relaxed);
        obs::registry().counter("service.store.plan_hits").add();
        return {it->second, false};
      }
      // In flight: another loader is compiling this very design. Wait on
      // the latch, NOT the builder's work — the store mutex is released
      // while we sleep, so unrelated find/load/unload proceed.
      latch_waits_.fetch_add(1, std::memory_order_relaxed);
      ready_cv_.wait(lock);
      // Re-check from scratch: the build may have succeeded (return it),
      // failed (entry erased — we become the builder), or the session may
      // even have been unloaded already.
    }
    sessions_.emplace(key, nullptr);  // in-flight marker
  }

  // The expensive part — parse (factory) + Analyzer + eager plan compile —
  // runs with NO store lock held.
  std::shared_ptr<Session> session;
  try {
    session = make_session(key);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    sessions_.erase(key);
    ready_cv_.notify_all();  // waiters retry; one becomes the next builder
    throw;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sessions_[key] = session;
    order_.push_back(key);
    bytes_ += session->approx_bytes;
    plan_misses_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("service.store.plan_misses").add();
    obs::registry().gauge("service.store.bytes").set(static_cast<double>(bytes_));
    enforce_budget(key);
    ready_cv_.notify_all();
  }
  return {session, true};
}

std::shared_ptr<Session> SessionStore::find(std::string_view key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(std::string(key));
  if (it == sessions_.end() || it->second == nullptr) return nullptr;
  touch_lru(it->first);
  return it->second;
}

bool SessionStore::unload(std::string_view key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(std::string(key));
  if (it == sessions_.end() || it->second == nullptr) return false;
  bytes_ -= it->second->approx_bytes;
  sessions_.erase(it);
  std::erase(order_, std::string(key));
  obs::registry().gauge("service.store.bytes").set(static_cast<double>(bytes_));
  return true;
}

std::size_t SessionStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return order_.size();
}

std::vector<std::string> SessionStore::keys() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return order_;
}

void SessionStore::set_budget(StoreBudget budget) {
  const std::lock_guard<std::mutex> lock(mutex_);
  budget_ = budget;
  enforce_budget(order_.empty() ? std::string() : order_.back());
}

StoreBudget SessionStore::budget() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return budget_;
}

std::size_t SessionStore::approx_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t SessionStore::loading() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size() - order_.size();
}

void SessionStore::touch_lru(const std::string& key) const {
  if (!order_.empty() && order_.back() == key) return;
  std::erase(order_, key);
  order_.push_back(key);
}

void SessionStore::enforce_budget(const std::string& keep) {
  const auto over = [&] {
    return (budget_.max_sessions != 0 && order_.size() > budget_.max_sessions) ||
           (budget_.max_bytes != 0 && bytes_ > budget_.max_bytes);
  };
  std::size_t i = 0;
  while (over() && i < order_.size()) {
    if (order_[i] == keep) {
      ++i;  // never evict the entry that triggered enforcement
      continue;
    }
    const std::string victim = order_[i];
    const auto it = sessions_.find(victim);
    bytes_ -= it->second->approx_bytes;
    sessions_.erase(it);
    order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(i));
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("service.store.evictions").add();
  }
  obs::registry().gauge("service.store.bytes").set(static_cast<double>(bytes_));
}

}  // namespace spsta::service
