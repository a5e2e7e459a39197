#include "service/transport/socket.hpp"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <mutex>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

namespace spsta::service::transport {

namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// getaddrinfo over (host, port); invokes \p try_fd on each candidate
/// until one yields a valid socket. \p passive selects AI_PASSIVE.
template <typename TryFd>
ScopedFd resolve_and(const std::string& host, std::uint16_t port, bool passive,
                     std::string* error, TryFd&& try_fd) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  addrinfo* list = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port_str.c_str(), &hints, &list);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "cannot resolve '" + host + "': " + ::gai_strerror(rc);
    }
    return ScopedFd();
  }
  ScopedFd fd;
  std::string last_error = "no usable address for '" + host + "'";
  for (addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    fd = try_fd(*ai, last_error);
    if (fd.valid()) break;
  }
  ::freeaddrinfo(list);
  if (!fd.valid() && error != nullptr) *error = std::move(last_error);
  return fd;
}

}  // namespace

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

std::optional<HostPort> parse_host_port(std::string_view spec) {
  std::size_t colon;
  HostPort result;
  if (!spec.empty() && spec.front() == '[') {
    // Bracketed IPv6 literal: [::1]:9000.
    const std::size_t close = spec.find(']');
    if (close == std::string_view::npos || close + 1 >= spec.size() ||
        spec[close + 1] != ':') {
      return std::nullopt;
    }
    result.host = std::string(spec.substr(1, close - 1));
    colon = close + 1;
  } else {
    colon = spec.rfind(':');
    if (colon == std::string_view::npos) return std::nullopt;
    result.host = std::string(spec.substr(0, colon));
  }
  if (result.host.empty()) result.host = "127.0.0.1";
  const std::string_view port_str = spec.substr(colon + 1);
  unsigned port = 0;
  const auto [end, ec] =
      std::from_chars(port_str.data(), port_str.data() + port_str.size(), port);
  if (ec != std::errc() || end != port_str.data() + port_str.size() ||
      port > 65535) {
    return std::nullopt;
  }
  result.port = static_cast<std::uint16_t>(port);
  return result;
}

void ScopedFd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

ScopedFd tcp_listen(const std::string& host, std::uint16_t port,
                    std::uint16_t* bound_port, std::string* error) {
  ignore_sigpipe();
  ScopedFd fd = resolve_and(
      host, port, /*passive=*/true, error,
      [&](const addrinfo& ai, std::string& last_error) -> ScopedFd {
        ScopedFd candidate(::socket(ai.ai_family, ai.ai_socktype, ai.ai_protocol));
        if (!candidate.valid()) {
          last_error = errno_string("socket");
          return ScopedFd();
        }
        const int one = 1;
        ::setsockopt(candidate.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(candidate.get(), ai.ai_addr, ai.ai_addrlen) != 0) {
          last_error = errno_string("bind");
          return ScopedFd();
        }
        if (::listen(candidate.get(), SOMAXCONN) != 0) {
          last_error = errno_string("listen");
          return ScopedFd();
        }
        return candidate;
      });
  if (fd.valid() && bound_port != nullptr) {
    sockaddr_storage addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      if (addr.ss_family == AF_INET) {
        *bound_port = ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
      } else if (addr.ss_family == AF_INET6) {
        *bound_port = ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
      }
    }
  }
  return fd;
}

ScopedFd tcp_connect(const std::string& host, std::uint16_t port,
                     std::string* error) {
  ignore_sigpipe();
  return resolve_and(
      host, port, /*passive=*/false, error,
      [&](const addrinfo& ai, std::string& last_error) -> ScopedFd {
        ScopedFd candidate(::socket(ai.ai_family, ai.ai_socktype, ai.ai_protocol));
        if (!candidate.valid()) {
          last_error = errno_string("socket");
          return ScopedFd();
        }
        if (::connect(candidate.get(), ai.ai_addr, ai.ai_addrlen) != 0) {
          last_error = errno_string("connect");
          return ScopedFd();
        }
        set_no_delay(candidate.get());
        return candidate;
      });
}

bool set_no_delay(int fd) {
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

ssize_t read_some(int fd, void* buffer, std::size_t size) {
  for (;;) {
    const ssize_t n = ::read(fd, buffer, size);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

}  // namespace spsta::service::transport
