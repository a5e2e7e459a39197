/// \file server.hpp
/// Multi-connection socket front end of the analysis service
/// (DESIGN.md §15): a TCP listener in front of the serving runtime.
///
/// Every accepted socket is one connection of a shared Runtime
/// (runtime.hpp): the same reader, writer, ordering, backpressure, line
/// cap, shutdown/EOF contract and trace lines as stdio, on ONE sharded
/// worker pool, so the affinity routing, bounded queues and admission
/// control of DESIGN.md §13 apply across clients. On top of that the server
/// owns:
///
///   * the poll-based accept loop and one thread per connection;
///   * the negotiated-mode count (binary frames vs JSON lines);
///   * graceful shutdown (a `shutdown` request or stop()): the listener
///     closes, reads stop, every already-submitted request is answered,
///     then connections close.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/runtime.hpp"
#include "service/service.hpp"
#include "service/transport/socket.hpp"

namespace spsta::service::transport {

struct SocketServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (see SocketServer::port)
  ServeOptions serve{};    ///< pool and trace settings, as for stdio
};

struct SocketServerReport {
  std::uint64_t connections = 0;       ///< accepted over the lifetime
  std::uint64_t frame_connections = 0; ///< of which negotiated binary frames
  std::uint64_t requests = 0;          ///< responses written or shed
  bool shutdown = false;               ///< stopped by a `shutdown` request
};

class SocketServer {
 public:
  SocketServer(AnalysisService& service, SocketServerOptions options = {});
  /// Joins everything; equivalent to stop() + the tail of serve().
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens. Throws std::runtime_error when the address is
  /// unusable. Returns the bound port (resolves port 0).
  std::uint16_t listen();

  /// Accept loop: serves until a `shutdown` request or stop(), then
  /// drains every connection and returns. Call listen() first.
  SocketServerReport serve();

  /// Requests a graceful stop from any thread (idempotent).
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const WorkerPool& pool() const noexcept { return runtime_.pool(); }
  [[nodiscard]] WorkerPool& pool() noexcept { return runtime_.pool(); }

 private:
  struct Connection;

  void serve_connection(const std::shared_ptr<Connection>& conn);
  /// Joins finished connection threads; \p all also joins live ones
  /// (after shutting their reads down for a graceful drain).
  void reap_connections(bool all);

  AnalysisService& service_;
  SocketServerOptions options_;
  Runtime runtime_;
  ScopedFd listen_fd_;
  std::uint16_t port_ = 0;

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> frame_connections_{0};
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace spsta::service::transport
