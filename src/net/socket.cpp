#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace sfopt::net {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("fcntl(O_NONBLOCK)");
  }
}

void setNoDelay(int fd) {
  const int one = 1;
  // Best effort: some socket types (tests over socketpairs) reject it.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket tcpListen(std::uint16_t port) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) fail("socket");
  const int one = 1;
  if (::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0) {
    fail("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    fail("bind to port " + std::to_string(port));
  }
  if (::listen(s.fd(), 64) < 0) fail("listen");
  setNonBlocking(s.fd());
  return s;
}

std::uint16_t localPort(const Socket& listener) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    fail("getsockname");
  }
  return ntohs(addr.sin_port);
}

std::optional<Socket> tcpAccept(const Socket& listener) {
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return std::nullopt;
    fail("accept");
  }
  Socket s(fd);
  setNonBlocking(s.fd());
  setNoDelay(s.fd());
  return s;
}

Socket tcpConnect(const std::string& host, std::uint16_t port, double timeoutSeconds) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string portStr = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), portStr.c_str(), &hints, &res);
  if (rc != 0) {
    throw std::runtime_error("resolve " + host + ": " + ::gai_strerror(rc));
  }

  std::string lastError = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Socket s(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!s.valid()) {
      lastError = std::strerror(errno);
      continue;
    }
    setNonBlocking(s.fd());
    if (::connect(s.fd(), ai->ai_addr, ai->ai_addrlen) == 0) {
      setNoDelay(s.fd());
      ::freeaddrinfo(res);
      return s;
    }
    if (errno != EINPROGRESS) {
      lastError = std::strerror(errno);
      continue;
    }
    // Non-blocking connect: wait for writability, then read SO_ERROR.
    // Clamped to [0, 10^6] s before the cast, so an infinite (or huge,
    // or negative) timeout is neither undefined behaviour nor poll's
    // "wait for ever".
    pollfd pfd{s.fd(), POLLOUT, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::clamp(timeoutSeconds, 0.0, 1e6) * 1000.0));
    if (ready <= 0) {
      lastError = ready == 0 ? "connect timed out" : std::strerror(errno);
      continue;
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      lastError = std::strerror(err != 0 ? err : errno);
      continue;
    }
    setNoDelay(s.fd());
    ::freeaddrinfo(res);
    return s;
  }
  ::freeaddrinfo(res);
  throw std::runtime_error("connect to " + host + ":" + portStr + " failed: " + lastError);
}

std::pair<Socket, Socket> nonBlockingPipe() {
  int fds[2];
  if (::pipe(fds) < 0) fail("pipe");
  std::pair<Socket, Socket> ends{Socket(fds[0]), Socket(fds[1])};
  setNonBlocking(fds[0]);
  setNonBlocking(fds[1]);
  return ends;
}

double monotonicSeconds() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace sfopt::net
