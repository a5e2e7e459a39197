/// \file runtime.hpp
/// The one serving runtime of the analysis service (DESIGN.md §13): a
/// sharded WorkerPool, an optional trace log, and the per-connection
/// reader/writer pair that every transport runs — `spsta_serviced` over
/// stdin/stdout, `spsta script` over a file, SocketServer over each
/// accepted socket.
///
/// A connection is a pair of file descriptors driven with read(2) and
/// write(2), so pipes, files and sockets all work. Per connection:
///
///   * the protocol mode is negotiated from the first bytes: the 5-byte
///     kFrameMagic switches to length-prefixed binary frames (frame.hpp),
///     anything else is plain JSON lines;
///   * the reader splits lines, skips blank ones, answers a line beyond
///     kMaxRequestBytes with `bad_request` before its newline arrives, and
///     submits everything else to the pool; a final line without a newline
///     at EOF is still answered;
///   * a queued `shutdown` request is the last line the connection reads:
///     later lines, even ones that arrived in the same write, are neither
///     executed nor answered. A shutdown the pool sheds (`overloaded`)
///     never runs, so the connection keeps reading;
///   * one writer thread writes responses strictly in submission order
///     from a deque of futures, records `service.serialize` and appends
///     the trace line. A connection holds at most queue_capacity
///     unanswered requests: beyond that the reader pauses, so a lone
///     client (a piped script) is throttled, never shed by its own
///     backlog, and a full socket or pipe blocks only its own writer;
///   * errors the reader finds itself (oversized line, bad frame) are
///     numbered by the pool like any response (WorkerPool::reject), so the
///     trace has one line per response with sequential ids;
///   * a write failure sheds only this connection: its in-flight requests
///     still execute, their responses are discarded.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/trace.hpp"
#include "service/service.hpp"
#include "service/worker_pool.hpp"

namespace spsta::service {

/// Serving settings shared by every transport.
struct ServeOptions {
  unsigned workers = 0;              ///< pool shards (0 = one per hardware thread)
  std::size_t queue_capacity = 256;  ///< per-shard bounded queue
  /// When non-empty, append one JSON trace line per response (trace_id,
  /// cmd, ok, queue/execute/serialize ms) to this file.
  std::string trace_path{};
};

struct ConnectionReport {
  std::uint64_t requests = 0;  ///< responses written or shed
  bool frame_mode = false;     ///< negotiated binary frames
};

class Runtime {
 public:
  Runtime(AnalysisService& service, const ServeOptions& options);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Serves one connection: requests read from \p in_fd, responses written
  /// to \p out_fd (the same fd for a socket). Returns once reading stopped
  /// — EOF, a `shutdown` line, stopping(), or a failed write — and every
  /// submitted request was answered. Safe to call from many threads at
  /// once; the descriptors stay owned by the caller.
  ConnectionReport serve_connection(int in_fd, int out_fd);

  /// Makes every connection stop reading at its next read (idempotent,
  /// any thread). Already submitted requests are still answered.
  void stop() { stop_.store(true, std::memory_order_release); }

  /// True after stop() or once a `shutdown` request executed.
  [[nodiscard]] bool stopping() const {
    return stop_.load(std::memory_order_acquire) || service_.shutdown_requested();
  }

  [[nodiscard]] WorkerPool& pool() noexcept { return pool_; }
  [[nodiscard]] const WorkerPool& pool() const noexcept { return pool_; }

 private:
  AnalysisService& service_;
  WorkerPool pool_;
  std::unique_ptr<obs::TraceLog> trace_;  ///< null without a trace_path
  std::atomic<bool> stop_{false};
};

}  // namespace spsta::service
