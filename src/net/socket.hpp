#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace sfopt::net {

/// RAII wrapper around a POSIX socket descriptor.  Move-only; closing is
/// idempotent.  All sockets handed out by the helpers below are
/// non-blocking with TCP_NODELAY set (the MW protocol is latency-bound
/// request/response, so Nagle only hurts).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Bind + listen on all interfaces; port 0 picks an ephemeral port (read it
/// back with localPort).  Throws std::runtime_error on failure.
[[nodiscard]] Socket tcpListen(std::uint16_t port);

/// The locally bound port of a listening socket.
[[nodiscard]] std::uint16_t localPort(const Socket& listener);

/// Accept one pending connection, or nullopt when none is queued.
[[nodiscard]] std::optional<Socket> tcpAccept(const Socket& listener);

/// Connect to host:port, waiting at most `timeoutSeconds` for the connect
/// to complete.  Resolves names via getaddrinfo.  Throws std::runtime_error
/// on resolution, connection, or timeout failure.
[[nodiscard]] Socket tcpConnect(const std::string& host, std::uint16_t port,
                                double timeoutSeconds);

/// A non-blocking POSIX pipe as {read end, write end}; Socket owns any
/// descriptor.  Throws std::runtime_error on failure.
[[nodiscard]] std::pair<Socket, Socket> nonBlockingPipe();

/// Monotonic seconds for transport-internal timing (heartbeats, deadlines).
[[nodiscard]] double monotonicSeconds() noexcept;

}  // namespace sfopt::net
