/// \file socket.hpp
/// Minimal POSIX plumbing shared by the serving runtime, the socket
/// client and the load harness (DESIGN.md §15). Everything here is
/// robustness-first: partial reads/writes are handled, EINTR is retried,
/// SIGPIPE is ignored process-wide (ignore_sigpipe(), installed by
/// tcp_listen, tcp_connect and the Runtime), and every failure is
/// reported as a value, not an exception — a vanished peer is a normal
/// event for a server.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <utility>

namespace spsta::service::transport {

/// Installs SIG_IGN for SIGPIPE once per process (idempotent, thread-safe).
/// A write to a half-closed socket must surface as EPIPE, never kill the
/// daemon.
void ignore_sigpipe();

/// "HOST:PORT" (e.g. "127.0.0.1:9000", ":0" for any-port loopback,
/// "[::1]:9000" for IPv6 literals). nullopt when the spec does not parse.
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};
[[nodiscard]] std::optional<HostPort> parse_host_port(std::string_view spec);

/// RAII file descriptor.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { reset(); }
  ScopedFd(ScopedFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int release() noexcept { return std::exchange(fd_, -1); }
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Binds + listens on host:port (SO_REUSEADDR). Returns the listening fd
/// and the bound port (useful with port 0). On failure the fd is invalid
/// and \p error describes why.
[[nodiscard]] ScopedFd tcp_listen(const std::string& host, std::uint16_t port,
                                  std::uint16_t* bound_port, std::string* error);

/// Connects to host:port (with TCP_NODELAY set). Invalid fd + \p error on
/// failure.
[[nodiscard]] ScopedFd tcp_connect(const std::string& host, std::uint16_t port,
                                   std::string* error);

/// Sets TCP_NODELAY on a connected socket, so a small reply leaves at once
/// instead of waiting out Nagle's algorithm behind the peer's delayed ACK.
/// Both ends of every connection set it: tcp_connect on the connecting
/// side, the accept loop on the accepted one. False if setsockopt fails.
bool set_no_delay(int fd);

/// Writes all of \p data with write(2) — sockets, pipes and files alike —
/// looping over partial writes. False on any unrecoverable error (EPIPE,
/// ECONNRESET, ...).
[[nodiscard]] bool write_all(int fd, const void* data, std::size_t size);

/// One read(2) with EINTR retry (sockets, pipes and files alike). >0
/// bytes, 0 on orderly EOF, -1 on error.
[[nodiscard]] ssize_t read_some(int fd, void* buffer, std::size_t size);

}  // namespace spsta::service::transport
