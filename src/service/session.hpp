/// \file session.hpp
/// The analysis service's session store: designs parsed once, addressed by
/// a content hash, kept alive across requests together with their
/// `Analyzer` (delay model, source statistics, compiled analysis plan),
/// warm incremental engine and per-(engine, params) analysis result cache.
///
/// This is what turns the repo's one-shot binaries into a serving system:
/// the costly work (parsing, plan compilation, the first full analysis) is
/// paid once per design *content hash* — two clients loading the same
/// netlist share one Session and therefore one compiled plan — and every
/// later request against the same hash reuses it. The store doubles as the
/// service's cross-session plan/result cache: sessions are kept in LRU
/// order and evicted against an entry/byte budget.
///
/// Concurrency contract (the PR-6 bugfix): `load` never constructs a
/// Session (netlist parse + Analyzer + eager plan compile — the expensive
/// part) while holding the store mutex. A per-key in-flight latch makes
/// concurrent loaders of the *same* hash wait for the first builder, while
/// `find` / `unload` / `load` of other keys proceed unblocked for the
/// whole duration of a compile. Sessions are handed out as shared_ptr, so
/// an unload or LRU eviction can never free a session another thread is
/// still analyzing.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/incremental_spsta.hpp"
#include "hier/hier_analyzer.hpp"
#include "spsta_api.hpp"

namespace spsta::service {

/// 16-hex-digit rendering of a 64-bit hash (session key format).
[[nodiscard]] std::string hash_key(std::uint64_t h);

/// Inverse of hash_key: parses a 16-hex-digit session key back to the
/// content hash. nullopt when the string is not a 16-digit hex number.
/// The worker pool uses this so a session-bearing request routes to the
/// same shard as the `load` that created the session.
[[nodiscard]] std::optional<std::uint64_t> parse_hash_key(std::string_view key) noexcept;

/// One cached analysis: the full engine result plus bookkeeping.
struct CachedAnalysis {
  AnalysisResult result;
  double elapsed_seconds = 0.0;  ///< wall clock of the producing run
};

/// One cached hierarchical analysis (composed block models).
struct CachedHierAnalysis {
  hier::HierReport report;
};

/// A loaded design and everything the service keeps warm for it.
///
/// Thread model: the session store hands out shared_ptr<Session>; all
/// mutable state (cache, incremental engine, counters, the analyzer's
/// delays/sources) is guarded by `mutex`. The netlist itself is immutable
/// after load, so concurrent engine runs over it are safe.
struct Session {
  std::string key;          ///< 16-hex content hash
  std::string display_name; ///< netlist name (for humans)

  /// The unified entry point: owns the netlist and source statistics, and
  /// the CompiledDesign plan every analysis against this session reuses.
  /// The plan is the session's one delay model; a delay ECO patches it in
  /// place (no recompile).
  std::unique_ptr<Analyzer> analyzer;

  /// Warm incremental engine (moment state and SSTA arrivals), created by
  /// the first ECO edit or probe (apply_eco / probe_eco) over the
  /// analyzer's plan, so its delay edits are the analyzer's. Uses exact
  /// settle comparison so its state is bit-identical to a fresh full run.
  std::unique_ptr<core::IncrementalSpsta> incremental;

  /// Bumped by every ECO edit (set_delay / set_source) — the one session
  /// epoch. apply_eco clears the result cache on every edit batch.
  std::uint64_t eco_version = 0;

  /// (engine|params) -> result, valid for the current eco_version only.
  std::unordered_map<std::string, CachedAnalysis> cache;

  /// Hierarchical sessions only: the composition analyzer (flat sessions
  /// leave this null — is_hier() is the discriminator) and its per-params
  /// result cache. ECO edits are not supported on hierarchical sessions.
  std::unique_ptr<hier::HierAnalyzer> hier_analyzer;
  std::unordered_map<std::string, CachedHierAnalysis> hier_cache;

  // Per-session counters surfaced by `stats`.
  std::uint64_t analyses = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t eco_edits = 0;
  std::uint64_t queries = 0;

  /// Construction-time estimate of the session's resident footprint
  /// (netlist + compiled plan + one warm result), the store's byte-budget
  /// currency. An estimate by design: eviction needs a stable number it
  /// can read without taking `mutex`.
  std::size_t approx_bytes = 0;

  mutable std::mutex mutex;

  /// The constructor compiles the analysis plan eagerly — Session
  /// construction IS the expensive step the store's latch protects, and
  /// the first analyze against the session finds the plan already warm.
  Session(std::string key_, netlist::Netlist design_);

  /// Hierarchical session: owns a HierAnalyzer over \p design_. Block
  /// compilation (through the shared library in \p hier_options) is the
  /// expensive step here, protected by the same store latch.
  Session(std::string key_, netlist::HierDesign design_,
          const hier::HierAnalyzerOptions& hier_options);

  [[nodiscard]] bool is_hier() const noexcept { return hier_analyzer != nullptr; }

  // Forwarders for the analyzer-owned design state. Flat sessions only —
  // hierarchical sessions have no flat analyzer (guard with is_hier()).
  [[nodiscard]] const netlist::Netlist& design() const noexcept {
    return analyzer->design();
  }
  [[nodiscard]] const netlist::DelayModel& delays() const noexcept {
    return analyzer->delays();
  }
  [[nodiscard]] std::span<const netlist::SourceStats> sources() const noexcept {
    return analyzer->sources();
  }

  /// The warm incremental engine, constructing it (initial full analysis)
  /// on first call. Caller must hold `mutex`.
  core::IncrementalSpsta& warm_incremental();

  /// Applies a batch of ECO edits as one transaction: writes each delay
  /// edit once, through the warm incremental engine into the shared plan,
  /// updates the analyzer's sources, commits a single merged propagation
  /// wave, bumps eco_version and clears the result cache. Returns the
  /// wave's cost (the per-request `nodes_reevaluated` / `settled_early`
  /// the protocol reports). Caller holds `mutex`.
  core::IncrementalSpsta::CommitStats apply_eco(
      std::span<const core::IncrementalSpsta::EcoEdit> edits);

  /// What-if probe against the warm engine: arrivals under \p edits at
  /// \p targets; the plan is never written and the state is restored. Neither
  /// eco_version nor the cache moves. Caller holds `mutex`.
  core::IncrementalSpsta::ProbeResult probe_eco(
      std::span<const core::IncrementalSpsta::EcoEdit> edits,
      std::span<const netlist::NodeId> targets);
};

/// Entry/byte budget of the store's LRU eviction. 0 = unlimited. The byte
/// budget compares against the sum of Session::approx_bytes.
struct StoreBudget {
  std::size_t max_sessions = 0;
  std::size_t max_bytes = 0;
};

/// Content-hash-addressed store of loaded designs — the service's
/// cross-session plan cache, with LRU eviction against a StoreBudget.
class SessionStore {
 public:
  /// Builds the design a fresh session will own. Invoked outside the store
  /// mutex, and only when no session for the hash exists yet — so `load`
  /// callers can defer parsing into the factory and pay it exactly once
  /// per content hash.
  using DesignFactory = std::function<netlist::Netlist()>;

  /// Generalized factory: builds the whole Session (flat or hierarchical)
  /// for the given key. Same invocation contract as DesignFactory.
  using SessionFactory = std::function<std::shared_ptr<Session>(const std::string& key)>;

  /// Loads (or re-finds) a session built by \p make_session — the
  /// hierarchical entry point and the primitive the DesignFactory overload
  /// forwards to. Latch/eviction semantics are identical.
  std::pair<std::shared_ptr<Session>, bool> load(std::uint64_t content_hash,
                                                 const SessionFactory& make_session);

  /// Loads (or re-finds) a design. The key is the content hash rendered by
  /// hash_key(). When a session for the hash already exists (or is being
  /// built by a concurrent loader — the in-flight latch), the existing
  /// session is returned and \p make_design is never invoked.
  ///
  /// The factory and the Session constructor run OUTSIDE the store mutex:
  /// concurrent find/unload/load of other keys never wait for a compile.
  /// If the factory or constructor throws, the in-flight marker is removed
  /// (waiters retry, one becomes the next builder) and the exception
  /// propagates to this caller only.
  ///
  /// Returns {session, freshly_created}.
  std::pair<std::shared_ptr<Session>, bool> load(std::uint64_t content_hash,
                                                 const DesignFactory& make_design);

  /// Session by key; nullptr when absent or still being built. A hit
  /// refreshes the session's LRU position.
  [[nodiscard]] std::shared_ptr<Session> find(std::string_view key) const;

  /// Removes a session. Returns false when absent or still in flight.
  /// Threads still holding the shared_ptr keep the session alive.
  bool unload(std::string_view key);

  /// Ready sessions (in-flight builds excluded).
  [[nodiscard]] std::size_t size() const;

  /// Keys in LRU order, least recently used first (for `stats`).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Sets the eviction budget and immediately enforces it.
  void set_budget(StoreBudget budget);
  [[nodiscard]] StoreBudget budget() const;

  /// Sum of approx_bytes over ready sessions.
  [[nodiscard]] std::size_t approx_bytes() const;

  // Cross-session cache counters (process lifetime, relaxed).
  [[nodiscard]] std::uint64_t plan_hits() const noexcept {
    return plan_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t plan_misses() const noexcept {
    return plan_misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Loads that waited on another loader's in-flight build of the same key.
  [[nodiscard]] std::uint64_t latch_waits() const noexcept {
    return latch_waits_.load(std::memory_order_relaxed);
  }
  /// In-flight builds right now (test observability for the latch).
  [[nodiscard]] std::size_t loading() const;

 private:
  /// Marks `key` most-recently-used. Caller holds mutex_.
  void touch_lru(const std::string& key) const;
  /// Evicts LRU sessions until the budget holds (never evicts in-flight
  /// builds; `keep` — the key just inserted — survives even over budget).
  /// Caller holds mutex_.
  void enforce_budget(const std::string& keep);

  mutable std::mutex mutex_;
  mutable std::condition_variable ready_cv_;  ///< in-flight latch wakeups
  /// nullptr value = in-flight marker: a loader is building this session
  /// outside the lock.
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
  /// Ready keys in LRU order (front = evict next). Mutable: `find` is
  /// logically const but refreshes recency.
  mutable std::vector<std::string> order_;
  StoreBudget budget_;
  std::size_t bytes_ = 0;  ///< sum of approx_bytes over ready sessions

  std::atomic<std::uint64_t> plan_hits_{0};
  std::atomic<std::uint64_t> plan_misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> latch_waits_{0};
};

}  // namespace spsta::service
