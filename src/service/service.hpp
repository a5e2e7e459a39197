/// \file service.hpp
/// The analysis service: executes protocol requests against the session
/// store, routing `analyze`/`query` through a per-session result cache
/// keyed on (design content hash, eco version, engine, params) and ECO
/// edits through the warm incremental engine.
///
/// Contract: execute() never throws — every failure becomes a structured
/// error response, so the daemon survives anything a client sends.
/// Thread model: every command may run concurrently with every other.
/// Read-only commands (analyze, query, stats, ping) serialize same-session
/// work on the per-session mutex; load/unload go through the session
/// store's latch (compiles happen outside the store lock, DESIGN.md §13),
/// and set_delay/set_source take the session mutex like reads. The worker
/// pool relies on per-shard FIFO plus this internal locking; no command is
/// a barrier.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "hier/block_cache.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "spsta_api.hpp"

namespace spsta::service {

/// Engines the `analyze` / `query` commands accept — the unified API's
/// enum; wire names come from spsta::to_string / spsta::parse_engine.
using Engine = spsta::Engine;
using spsta::to_string;

/// JSON rendering of the process-wide obs registry (counters, gauges,
/// per-stage latency histograms). Shared by the `stats` command, the
/// apps' `--metrics` dump and bench/table3_runtime's stage breakdown.
[[nodiscard]] Json metrics_json();

/// The content hash a `load` of (format, content) resolves to — the
/// session key is hash_key() of this value. Exposed so the worker pool's
/// affinity router sends a load to the same shard that will later serve
/// the session it creates.
[[nodiscard]] std::uint64_t load_content_hash(std::string_view format,
                                              std::string_view content) noexcept;

/// Parsed analysis parameters: an AnalysisRequest whose optional fields
/// are set only when the client supplied them, so Analyzer validation
/// rejects options the chosen engine cannot honor instead of silently
/// ignoring them (the engine itself fills the defaults, which match the
/// one-shot binaries).
struct AnalyzeParams {
  AnalysisRequest request;

  /// Parses the optional "params" object of an analyze or query body.
  /// `threads` is clamped to the host's hardware threads. Malformed
  /// params throw; `execute` answers them with bad_params.
  [[nodiscard]] static AnalyzeParams parse(const Json& body);

  /// Cache key for (engine, params). `threads` is deliberately excluded:
  /// the execution layer's determinism contract makes results bit-identical
  /// at any thread count, so a 1-thread and an 8-thread run share a cache
  /// entry.
  [[nodiscard]] std::string cache_key(Engine engine) const;
};

/// Aggregate wall-clock per engine, surfaced by `stats`.
struct EngineUsage {
  std::uint64_t runs = 0;
  double wall_seconds = 0.0;
};

class AnalysisService {
 public:
  AnalysisService();

  /// Executes one parsed request. Never throws.
  [[nodiscard]] Response execute(const Request& request);

  /// Parses and executes one protocol line. Never throws.
  [[nodiscard]] Response execute_line(std::string_view line);

  /// True once a `shutdown` request has been served.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const SessionStore& store() const noexcept { return store_; }
  [[nodiscard]] SessionStore& store() noexcept { return store_; }
  [[nodiscard]] hier::BlockModelCache& block_models() noexcept { return block_models_; }
  [[nodiscard]] hier::BlockLibrary& block_library() noexcept { return block_library_; }

  /// Configures the cross-session LRU budget (forwards to the store). The
  /// hierarchical block-model cache shares the same byte ceiling: extracted
  /// port models are derived data, so they must never outgrow the sessions
  /// they serve.
  void set_store_budget(StoreBudget budget) {
    store_.set_budget(budget);
    block_models_.set_budget({0, budget.max_bytes});
  }

  /// Requests served so far (successes and failures).
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  Response dispatch(const Request& request);
  Response handle_ping(const Request& request);
  Response handle_load(const Request& request);
  Response handle_analyze(const Request& request);
  Response handle_query(const Request& request);
  Response handle_set_delay(const Request& request);
  /// `set_delay` with `"probe":true`: what-if arrivals at the requested
  /// (or all endpoint) nodes under the edit batch, committing nothing.
  /// Caller (handle_set_delay) holds session.mutex.
  Response run_probe(const Request& request, Session& session,
                     std::span<const core::IncrementalSpsta::EcoEdit> edits);
  Response handle_set_source(const Request& request);
  Response handle_stats(const Request& request);
  Response handle_unload(const Request& request);
  Response handle_shutdown(const Request& request);

  /// The session named by the request's "session" field, or throws. The
  /// shared_ptr keeps the session alive across the handler even if a
  /// concurrent unload or LRU eviction drops it from the store.
  std::shared_ptr<Session> resolve_session(const Request& request);

  /// Cache lookup / engine run for (session, engine, params). Caller must
  /// hold session.mutex. Returns {entry, served_from_cache}.
  std::pair<const CachedAnalysis*, bool> ensure_analysis(Session& session,
                                                         Engine engine,
                                                         const AnalyzeParams& params);

  void record_engine_run(Engine engine, double seconds);

  SessionStore store_;
  hier::BlockModelCache block_models_; ///< extracted port models, shared across hier sessions
  hier::BlockLibrary block_library_;   ///< compiled blocks interned by content

  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};

  std::mutex usage_mutex_;
  std::map<std::string, EngineUsage> usage_;  ///< keyed by engine wire name
};

}  // namespace spsta::service
