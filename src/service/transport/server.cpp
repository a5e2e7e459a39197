#include "service/transport/server.hpp"

#include <stdexcept>
#include <thread>
#include <utility>

#include <poll.h>
#include <sys/socket.h>

#include "obs/metrics.hpp"

namespace spsta::service::transport {

namespace {

/// Accept-loop poll granularity: how quickly stop() / a shutdown request
/// served on another thread is noticed.
constexpr int kAcceptPollMs = 50;

}  // namespace

/// One accepted socket and the thread reading it (Runtime::serve_connection).
/// `mutex` orders the drain path's shut_read against that thread closing
/// the fd — without it a shutdown() could land on a recycled descriptor
/// number.
struct SocketServer::Connection {
  ScopedFd fd;
  std::mutex mutex;
  std::thread reader;             ///< joined by reap_connections
  std::atomic<bool> done{false};  ///< served, drained and closed

  /// Stops the receive side so a blocked read returns (graceful drain).
  void shut_read() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (fd.valid()) ::shutdown(fd.get(), SHUT_RD);
  }
};

SocketServer::SocketServer(AnalysisService& service, SocketServerOptions options)
    : service_(service), options_(std::move(options)), runtime_(service, options_.serve) {}

SocketServer::~SocketServer() {
  stop();
  reap_connections(/*all=*/true);
}

std::uint16_t SocketServer::listen() {
  std::string error;
  listen_fd_ = tcp_listen(options_.host, options_.port, &port_, &error);
  if (!listen_fd_.valid()) {
    throw std::runtime_error("cannot listen on " + options_.host + ":" +
                             std::to_string(options_.port) + " (" + error + ")");
  }
  return port_;
}

void SocketServer::stop() { runtime_.stop(); }

void SocketServer::reap_connections(bool all) {
  std::vector<std::shared_ptr<Connection>> joinable;
  {
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
      const bool take = all || (*it)->done.load(std::memory_order_acquire);
      if (take) {
        joinable.push_back(*it);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : joinable) {
    if (all) conn->shut_read();  // graceful: stop reads, drain writes
    if (conn->reader.joinable()) conn->reader.join();
  }
}

SocketServerReport SocketServer::serve() {
  while (!runtime_.stopping()) {
    pollfd pfd{listen_fd_.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, kAcceptPollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    reap_connections(/*all=*/false);
    if (rc == 0) continue;
    ScopedFd fd(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!fd.valid()) continue;
    set_no_delay(fd.get());
    connections_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("service.transport.connections").add();
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(fd);
    {
      const std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { serve_connection(conn); });
  }
  // Graceful drain: no new connections, no new requests, but every
  // already-submitted request is answered before connections close.
  listen_fd_.reset();
  reap_connections(/*all=*/true);
  runtime_.pool().drain();
  return {connections_.load(std::memory_order_relaxed),
          frame_connections_.load(std::memory_order_relaxed),
          requests_.load(std::memory_order_relaxed),
          service_.shutdown_requested()};
}

void SocketServer::serve_connection(const std::shared_ptr<Connection>& conn) {
  const ConnectionReport report =
      runtime_.serve_connection(conn->fd.get(), conn->fd.get());
  requests_.fetch_add(report.requests, std::memory_order_relaxed);
  if (report.frame_mode) frame_connections_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(conn->mutex);
    conn->fd.reset();
  }
  conn->done.store(true, std::memory_order_release);
}

}  // namespace spsta::service::transport
