#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/job.hpp"

namespace sfopt::service {

/// Synchronous client for the multi-tenant daemon: dials the same TCP
/// port workers use, announces itself with a client-kind Hello, and
/// exchanges Job* frames.  One outstanding request at a time; the daemon
/// may push an unsolicited JobResult at any point after submission, so
/// replies are matched by frame type and out-of-order frames are parked
/// until asked for.
class ServiceClient {
 public:
  /// Connect and complete the Hello/Welcome handshake.  Throws
  /// std::runtime_error on connect or handshake failure.  Every timeout
  /// of this class may be infinite; a NaN one throws
  /// std::invalid_argument before anything is sent.
  ServiceClient(const std::string& host, std::uint16_t port,
                double timeoutSeconds = 10.0);

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Client id the daemon assigned (the Welcome rank field).
  [[nodiscard]] int clientId() const noexcept { return clientId_; }

  /// Submit a job; the reply carries the assigned job id or a rejection.
  [[nodiscard]] StatusReply submit(const JobSpec& spec, double timeoutSeconds = 30.0);

  /// Query one job (or the whole service with jobId 0).
  [[nodiscard]] StatusReply status(std::uint64_t jobId, double timeoutSeconds = 30.0);

  /// Request cancellation of a job.
  [[nodiscard]] StatusReply cancel(std::uint64_t jobId, double timeoutSeconds = 30.0);

  /// Block until the daemon pushes a JobResult frame (the terminal state
  /// of a job this client submitted).  Throws std::runtime_error on
  /// timeout or a dropped connection.
  [[nodiscard]] ResultReply waitResult(double timeoutSeconds);

  /// Pull the stored result of any job by id — including jobs submitted
  /// by clients of an earlier daemon incarnation (the durable journal
  /// restores their outcomes across restarts).  Non-terminal jobs reply
  /// without an outcome; evicted jobs say so in the detail.  Call this on
  /// a connection with no submissions of its own (as `sfopt status
  /// --result` does): on a submitting connection a pushed completion for
  /// the same job is indistinguishable from the fetch reply.
  [[nodiscard]] ResultReply fetchResult(std::uint64_t jobId, double timeoutSeconds = 30.0);

 private:
  void sendFrame(const net::Frame& frame);
  /// Next frame of `want`, waiting at most until `deadline`; frames of
  /// other types are parked in arrival order.
  [[nodiscard]] net::Frame recvFrameOfType(net::FrameType want, double deadline);
  [[nodiscard]] StatusReply roundTrip(net::FrameType type, mw::MessageBuffer request,
                                      double timeoutSeconds);

  net::Socket socket_;
  net::FrameDecoder decoder_;
  std::deque<net::Frame> parked_;
  int clientId_ = 0;
};

}  // namespace sfopt::service
