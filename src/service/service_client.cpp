#include "service/service_client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sfopt::service {
namespace {

/// Write the whole buffer, poll()ing for writability on a short-write.
void sendAll(const net::Socket& socket, const std::byte* data, std::size_t n,
             double deadline) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(socket.fd(), data + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      throw std::runtime_error(std::string("service client send failed: ") +
                               std::strerror(errno));
    }
    if (net::monotonicSeconds() >= deadline) {
      throw std::runtime_error("service client send timed out");
    }
    pollfd pfd{socket.fd(), POLLOUT, 0};
    ::poll(&pfd, 1, 50);
  }
}

/// A timeout may be infinite (wait for ever) but not NaN: a NaN deadline
/// fails every comparison, so the wait would never time out.
double checkedTimeout(double seconds) {
  if (std::isnan(seconds)) throw std::invalid_argument("ServiceClient: timeout is NaN");
  return seconds;
}

}  // namespace

ServiceClient::ServiceClient(const std::string& host, std::uint16_t port,
                             double timeoutSeconds)
    : socket_(net::tcpConnect(host, port, checkedTimeout(timeoutSeconds))) {
  const double deadline = net::monotonicSeconds() + timeoutSeconds;
  std::vector<std::byte> wire;
  net::appendFrame(wire, net::makeHelloFrame(net::kPeerClient));
  sendAll(socket_, wire.data(), wire.size(), deadline);
  const net::Frame frame = recvFrameOfType(net::FrameType::Welcome, deadline);
  const net::Welcome welcome = net::parseWelcome(frame);
  clientId_ = welcome.rank;
}

void ServiceClient::sendFrame(const net::Frame& frame) {
  std::vector<std::byte> wire;
  net::appendFrame(wire, frame);
  sendAll(socket_, wire.data(), wire.size(), net::monotonicSeconds() + 30.0);
}

net::Frame ServiceClient::recvFrameOfType(net::FrameType want, double deadline) {
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (it->type == want) {
      net::Frame frame = std::move(*it);
      parked_.erase(it);
      return frame;
    }
  }
  std::byte chunk[4096];
  while (true) {
    while (auto frame = decoder_.next()) {
      if (frame->type == want) return std::move(*frame);
      // Heartbeats carry no job state; anything else (typically an early
      // JobResult push) is parked for a later waitResult call.
      if (frame->type != net::FrameType::Heartbeat) parked_.push_back(std::move(*frame));
    }
    const ssize_t rc = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
    if (rc > 0) {
      decoder_.feed(chunk, static_cast<std::size_t>(rc));
      continue;
    }
    if (rc == 0) throw std::runtime_error("service connection closed by daemon");
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      throw std::runtime_error(std::string("service client recv failed: ") +
                               std::strerror(errno));
    }
    const double now = net::monotonicSeconds();
    if (now >= deadline) throw std::runtime_error("timed out waiting for daemon reply");
    pollfd pfd{socket_.fd(), POLLIN, 0};
    const double wait = std::min(deadline - now, 0.1);
    ::poll(&pfd, 1, static_cast<int>(wait * 1000.0) + 1);
  }
}

StatusReply ServiceClient::roundTrip(net::FrameType type, mw::MessageBuffer request,
                                     double timeoutSeconds) {
  checkedTimeout(timeoutSeconds);
  sendFrame(net::makeJobFrame(type, request.releaseWire()));
  net::Frame reply = recvFrameOfType(net::FrameType::JobStatus,
                                     net::monotonicSeconds() + timeoutSeconds);
  mw::MessageBuffer buf(std::move(reply.payload));
  return StatusReply::unpack(buf);
}

StatusReply ServiceClient::submit(const JobSpec& spec, double timeoutSeconds) {
  mw::MessageBuffer buf;
  spec.pack(buf);
  return roundTrip(net::FrameType::JobSubmit, std::move(buf), timeoutSeconds);
}

StatusReply ServiceClient::status(std::uint64_t jobId, double timeoutSeconds) {
  mw::MessageBuffer buf;
  buf.pack(jobId);
  return roundTrip(net::FrameType::JobStatus, std::move(buf), timeoutSeconds);
}

StatusReply ServiceClient::cancel(std::uint64_t jobId, double timeoutSeconds) {
  mw::MessageBuffer buf;
  buf.pack(jobId);
  return roundTrip(net::FrameType::JobCancel, std::move(buf), timeoutSeconds);
}

ResultReply ServiceClient::waitResult(double timeoutSeconds) {
  net::Frame frame = recvFrameOfType(net::FrameType::JobResult,
                                     net::monotonicSeconds() + checkedTimeout(timeoutSeconds));
  mw::MessageBuffer buf(std::move(frame.payload));
  return ResultReply::unpack(buf);
}

ResultReply ServiceClient::fetchResult(std::uint64_t jobId, double timeoutSeconds) {
  checkedTimeout(timeoutSeconds);
  mw::MessageBuffer request;
  request.pack(jobId);
  sendFrame(net::makeJobFrame(net::FrameType::JobResult, request.releaseWire()));
  net::Frame frame = recvFrameOfType(net::FrameType::JobResult,
                                     net::monotonicSeconds() + timeoutSeconds);
  mw::MessageBuffer buf(std::move(frame.payload));
  return ResultReply::unpack(buf);
}

}  // namespace sfopt::service
