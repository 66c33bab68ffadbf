#include "net/tcp_transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <tuple>

#include "telemetry/telemetry.hpp"

namespace sfopt::net {

namespace {

/// Granularity of one poll pass: short enough that heartbeat bookkeeping
/// and deadline checks stay responsive inside long blocking recvs.
constexpr double kPollSliceSeconds = 0.2;

constexpr std::size_t kReadChunk = 64 * 1024;

/// Upper bound on a blocking worker->master write when no master timeout is
/// configured: a peer that stops draining its socket for this long is dead
/// for our purposes, and an unbounded send would pin the heartbeat thread
/// (which writes under sendMutex_) and wedge destruction.
constexpr double kDefaultWriteTimeoutSeconds = 30.0;

int toPollMillis(double seconds) {
  if (seconds <= 0.0) return 0;
  const double ms = seconds * 1000.0;
  return ms > 1.0 ? static_cast<int>(std::min(ms, 60'000.0)) : 1;
}

bool matches(const Message& m, Rank source, int tag) noexcept {
  return (source == kAnySource || m.source == source) && (tag == kAnyTag || m.tag == tag);
}

}  // namespace

NetTelemetry NetTelemetry::registerIn(telemetry::Telemetry* telemetry) {
  NetTelemetry t;
  if (telemetry == nullptr) return t;
  auto& reg = telemetry->metrics();
  t.messagesIn = &reg.counter("net.messages_in");
  t.messagesOut = &reg.counter("net.messages_out");
  t.bytesIn = &reg.counter("net.bytes_in");
  t.bytesOut = &reg.counter("net.bytes_out");
  t.connects = &reg.counter("net.connects");
  t.disconnects = &reg.counter("net.disconnects");
  t.heartbeatsSent = &reg.counter("net.heartbeats_sent");
  t.heartbeatMisses = &reg.counter("net.heartbeat_misses");
  t.sendsDropped = &reg.counter("net.sends_dropped");
  t.sendStalls = &reg.counter("net.send_stalls");
  t.framesIn = &reg.counter("net.frames_in");
  t.framesOut = &reg.counter("net.frames_out");
  t.decodeErrors = &reg.counter("net.decode_errors");
  return t;
}

void NetTelemetry::add(telemetry::Counter* c, std::int64_t n) noexcept {
  if (c != nullptr) c->add(n);
}

// ---------------------------------------------------------------------------
// TcpCommWorld (master)
// ---------------------------------------------------------------------------

TcpCommWorld::TcpCommWorld(std::uint16_t port, Options options)
    : options_(options),
      listener_(tcpListen(port)),
      port_(localPort(listener_)),
      tel_(NetTelemetry::registerIn(options.telemetry)) {
  std::tie(wakeRead_, wakeWrite_) = nonBlockingPipe();
}

TcpCommWorld::~TcpCommWorld() = default;

void TcpCommWorld::wake() noexcept {
  const char byte = 1;
  // A full pipe is already readable, so EAGAIN loses no wake-up.
  while (::write(wakeWrite_.fd(), &byte, 1) < 0 && errno == EINTR) {
  }
}

void TcpCommWorld::setGreeting(int tag, mw::MessageBuffer payload) {
  greeting_ = {tag, payload.releaseWire()};
}

int TcpCommWorld::liveWorkers() const noexcept {
  int n = 0;
  for (const auto& p : peers_) n += p->alive ? 1 : 0;
  return n;
}

int TcpCommWorld::size() const noexcept { return 1 + static_cast<int>(peers_.size()); }

double TcpCommWorld::masterNow() const {
  return options_.telemetry != nullptr ? options_.telemetry->clock().now()
                                       : monotonicSeconds();
}

std::vector<FleetHealth> TcpCommWorld::fleetHealth() const {
  std::vector<FleetHealth> out;
  out.reserve(peers_.size());
  for (const auto& p : peers_) out.push_back(p->health);
  return out;
}

void TcpCommWorld::checkMaster(Rank at, const char* what) const {
  if (at != 0) {
    throw std::invalid_argument(std::string("TcpCommWorld::") + what +
                                ": only rank 0 lives on the master transport");
  }
}

int TcpCommWorld::waitForWorkers(int count, double timeoutSeconds) {
  const double deadline = monotonicSeconds() + timeoutSeconds;
  for (;;) {
    if (liveWorkers() >= count) return liveWorkers();
    const double remaining = deadline - monotonicSeconds();
    if (remaining <= 0.0) {
      throw std::runtime_error("TcpCommWorld: timed out waiting for workers (have " +
                               std::to_string(liveWorkers()) + " of " +
                               std::to_string(count) + ")");
    }
    pollOnce(std::min(remaining, kPollSliceSeconds));
  }
}

void TcpCommWorld::send(Rank from, Rank to, int tag, mw::MessageBuffer payload,
                        std::uint64_t traceId, std::uint64_t parentSpan) {
  checkMaster(from, "send(from)");
  if (to < 1 || to >= size()) {
    throw std::out_of_range("TcpCommWorld::send: rank out of range");
  }
  Peer& peer = *peers_[static_cast<std::size_t>(to) - 1];
  if (!peer.alive) {
    NetTelemetry::add(tel_.sendsDropped);
    return;  // loss already reported (or about to be) via kTagWorkerLost
  }
  const Frame frame = makeMessageFrame(tag, payload.releaseWire(), traceId, parentSpan);
  const std::size_t before = peer.sendBuf.size();
  appendFrame(peer.sendBuf, frame);
  ++messagesSent_;
  ++framesSent_;
  bytesSent_ += peer.sendBuf.size() - before;
  NetTelemetry::add(tel_.messagesOut);
  NetTelemetry::add(tel_.framesOut);
  NetTelemetry::add(tel_.bytesOut, static_cast<std::int64_t>(peer.sendBuf.size() - before));
  flushPeer(to);
}

void TcpCommWorld::enqueueToPeer(Rank rank, const Frame& frame) {
  Peer& peer = *peers_[static_cast<std::size_t>(rank) - 1];
  if (!peer.alive) return;
  const std::size_t before = peer.sendBuf.size();
  appendFrame(peer.sendBuf, frame);
  ++framesSent_;
  NetTelemetry::add(tel_.framesOut);
  NetTelemetry::add(tel_.bytesOut, static_cast<std::int64_t>(peer.sendBuf.size() - before));
  flushPeer(rank);
}

void TcpCommWorld::flushPeer(Rank rank) {
  Peer& peer = *peers_[static_cast<std::size_t>(rank) - 1];
  bool progressed = false;
  while (peer.alive && peer.sendPos < peer.sendBuf.size()) {
    const ssize_t n = ::send(peer.sock.fd(), peer.sendBuf.data() + peer.sendPos,
                             peer.sendBuf.size() - peer.sendPos, MSG_NOSIGNAL);
    if (n > 0) {
      peer.sendPos += static_cast<std::size_t>(n);
      progressed = true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Drained by poll later — but start (or keep) the stall clock: a
      // half-open peer never drains, and only this deadline catches it.
      if (peer.sendBlockedSince <= 0.0 || progressed) {
        peer.sendBlockedSince = monotonicSeconds();
      }
      // Against a stalled consumer the backlog would otherwise grow
      // without bound: cap it and evict the peer as lost.
      if (options_.maxSendBufferBytes > 0 &&
          peer.sendBuf.size() - peer.sendPos > options_.maxSendBufferBytes) {
        NetTelemetry::add(tel_.sendStalls);
        markLost(rank, "send backlog overflow");
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    markLost(rank, "send failed");
    return;
  }
  peer.sendBlockedSince = 0.0;
  if (peer.sendPos == peer.sendBuf.size()) {
    peer.sendBuf.clear();
    peer.sendPos = 0;
  }
}

void TcpCommWorld::retireFleetTelemetry(Rank rank) {
  Peer& peer = *peers_[static_cast<std::size_t>(rank) - 1];
  if (options_.telemetry != nullptr && peer.health.seen) {
    auto& reg = options_.telemetry->metrics();
    const std::string prefix = "fleet.r" + std::to_string(rank) + ".";
    for (const char* name :
         {"execute_ewma_seconds", "tasks_executed", "tasks_failed", "bytes_in",
          "bytes_out", "messages_in", "messages_out", "queue_depth"}) {
      reg.gauge(prefix + name).set(0.0);
    }
    if (peer.health.rttSeconds >= 0.0) {
      reg.gauge(prefix + "rtt_seconds").set(0.0);
      reg.gauge(prefix + "clock_offset_seconds").set(0.0);
    }
  }
  peer.health = FleetHealth{};
}

void TcpCommWorld::markLost(Rank rank, const char* why) {
  Peer& peer = *peers_[static_cast<std::size_t>(rank) - 1];
  if (!peer.alive) return;
  peer.alive = false;
  peer.sock.close();
  peer.sendBuf.clear();
  peer.sendPos = 0;
  peer.sendBlockedSince = 0.0;
  // Retire the rank's gauges and clock-offset estimate now: ranks are
  // never reused, so nothing would ever overwrite them, and a reconnected
  // worker reporting under its fresh rank must not leave the old keys
  // frozen at their last pre-loss readings.
  retireFleetTelemetry(rank);
  NetTelemetry::add(tel_.disconnects);
  Message lost;
  lost.source = rank;
  lost.tag = kTagWorkerLost;
  lost.payload.pack(std::string(why));
  inbox_.push_back(std::move(lost));
}

void TcpCommWorld::serviceListener() {
  while (auto accepted = tcpAccept(listener_)) {
    PendingPeer p;
    p.sock = std::move(*accepted);
    p.decoder = FrameDecoder(options_.maxFrameBytes);
    p.since = monotonicSeconds();
    pending_.push_back(std::move(p));
  }
}

void TcpCommWorld::promotePending(std::size_t index) {
  // Hello validated by the caller; assign the next rank and register.
  auto peer = std::make_unique<Peer>();
  peer->sock = std::move(pending_[index].sock);
  peer->decoder = std::move(pending_[index].decoder);
  peer->lastHeard = monotonicSeconds();
  peer->lastBeat = peer->lastHeard;
  peer->alive = true;
  peers_.push_back(std::move(peer));
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));

  const Rank rank = static_cast<Rank>(peers_.size());
  NetTelemetry::add(tel_.connects);
  enqueueToPeer(rank, makeWelcomeFrame(rank, size()));
  if (greeting_.has_value()) {
    enqueueToPeer(rank, makeMessageFrame(greeting_->first,
                                         std::vector<std::byte>(greeting_->second)));
  }
  Message joined;
  joined.source = rank;
  joined.tag = kTagWorkerJoined;
  inbox_.push_back(std::move(joined));
}

void TcpCommWorld::servicePending(std::size_t index) {
  PendingPeer& p = pending_[index];
  std::byte chunk[kReadChunk];
  bool closed = false;
  for (;;) {
    const ssize_t n = ::recv(p.sock.fd(), chunk, sizeof chunk, 0);
    if (n > 0) {
      p.decoder.feed(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF/error: defer the drop until the decoder is consulted — the Hello
    // may have arrived in the connection's final segments, and a completed
    // registration must surface (as a join, then a loss) rather than vanish.
    closed = true;
    break;
  }
  try {
    if (auto frame = p.decoder.next()) {
      const Hello hello = parseHello(*frame);  // throws on bad magic/version
      if (hello.peerKind == kPeerClient) {
        promoteClient(index);
      } else {
        promotePending(index);
      }
      return;
    }
  } catch (const ProtocolError&) {
    // Not an sfopt worker (or an incompatible one): refuse registration.
    ++decodeErrors_;
    NetTelemetry::add(tel_.decodeErrors);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
    return;
  }
  // Closed before completing the handshake: just drop it.
  if (closed) pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));
}

void TcpCommWorld::promoteClient(std::size_t index) {
  auto client = std::make_unique<ClientPeer>();
  client->sock = std::move(pending_[index].sock);
  client->decoder = std::move(pending_[index].decoder);
  client->alive = true;
  clients_.push_back(std::move(client));
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(index));

  const int id = static_cast<int>(clients_.size());
  NetTelemetry::add(tel_.connects);
  // The Welcome's rank field carries the client id; worldSize is the
  // worker world as the client would see it (floored at 2 so the
  // handshake validation on the other end holds before workers join).
  ClientPeer& c = *clients_[static_cast<std::size_t>(id) - 1];
  const std::size_t before = c.sendBuf.size();
  appendFrame(c.sendBuf, makeWelcomeFrame(id, std::max(size(), 2)));
  ++framesSent_;
  NetTelemetry::add(tel_.framesOut);
  NetTelemetry::add(tel_.bytesOut, static_cast<std::int64_t>(c.sendBuf.size() - before));
  flushClient(id);
}

void TcpCommWorld::dropClient(int client) {
  ClientPeer& c = *clients_[static_cast<std::size_t>(client) - 1];
  if (!c.alive) return;
  c.alive = false;
  c.sock.close();
  c.sendBuf.clear();
  c.sendPos = 0;
  NetTelemetry::add(tel_.disconnects);
}

void TcpCommWorld::flushClient(int client) {
  ClientPeer& c = *clients_[static_cast<std::size_t>(client) - 1];
  while (c.alive && c.sendPos < c.sendBuf.size()) {
    const ssize_t n = ::send(c.sock.fd(), c.sendBuf.data() + c.sendPos,
                             c.sendBuf.size() - c.sendPos, MSG_NOSIGNAL);
    if (n > 0) {
      c.sendPos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    dropClient(client);
    return;
  }
  if (c.sendPos == c.sendBuf.size()) {
    c.sendBuf.clear();
    c.sendPos = 0;
  }
}

void TcpCommWorld::serviceClient(int client) {
  ClientPeer& c = *clients_[static_cast<std::size_t>(client) - 1];
  std::byte chunk[kReadChunk];
  bool closed = false;
  for (;;) {
    const ssize_t n = ::recv(c.sock.fd(), chunk, sizeof chunk, 0);
    if (n > 0) {
      c.decoder.feed(chunk, static_cast<std::size_t>(n));
      NetTelemetry::add(tel_.bytesIn, n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Drain buffered frames below before retiring the id: a cancel or
    // final status request often rides the connection's last segments.
    closed = true;
    break;
  }
  try {
    while (auto frame = c.decoder.next()) {
      ++framesReceived_;
      NetTelemetry::add(tel_.framesIn);
      if (isJobFrame(frame->type)) {
        ClientRequest req;
        req.client = client;
        req.type = frame->type;
        req.payload = mw::MessageBuffer(std::move(frame->payload));
        ++messagesReceived_;
        bytesReceived_ += req.payload.sizeBytes();
        clientInbox_.push_back(std::move(req));
        NetTelemetry::add(tel_.messagesIn);
        continue;
      }
      if (frame->type == FrameType::Heartbeat) continue;
      throw ProtocolError("client sent a non-job frame after registration");
    }
    if (closed) dropClient(client);
  } catch (const ProtocolError&) {
    ++decodeErrors_;
    NetTelemetry::add(tel_.decodeErrors);
    dropClient(client);
  }
}

std::vector<TcpCommWorld::ClientRequest> TcpCommWorld::takeClientRequests() {
  std::vector<ClientRequest> out;
  out.reserve(clientInbox_.size());
  while (!clientInbox_.empty()) {
    out.push_back(std::move(clientInbox_.front()));
    clientInbox_.pop_front();
  }
  return out;
}

void TcpCommWorld::sendToClient(int client, FrameType type, mw::MessageBuffer payload) {
  if (client < 1 || client > static_cast<int>(clients_.size())) {
    throw std::out_of_range("TcpCommWorld::sendToClient: unknown client id");
  }
  ClientPeer& c = *clients_[static_cast<std::size_t>(client) - 1];
  if (!c.alive) {
    NetTelemetry::add(tel_.sendsDropped);
    return;
  }
  const std::size_t before = c.sendBuf.size();
  appendFrame(c.sendBuf, makeJobFrame(type, payload.releaseWire()));
  ++messagesSent_;
  ++framesSent_;
  bytesSent_ += c.sendBuf.size() - before;
  NetTelemetry::add(tel_.messagesOut);
  NetTelemetry::add(tel_.framesOut);
  NetTelemetry::add(tel_.bytesOut, static_cast<std::int64_t>(c.sendBuf.size() - before));
  flushClient(client);
}

int TcpCommWorld::connectedClients() const noexcept {
  int n = 0;
  for (const auto& c : clients_) n += c->alive ? 1 : 0;
  return n;
}

void TcpCommWorld::pump(double timeoutSeconds) { pollOnce(timeoutSeconds); }

void TcpCommWorld::servicePeer(Rank rank) {
  Peer& peer = *peers_[static_cast<std::size_t>(rank) - 1];
  std::byte chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(peer.sock.fd(), chunk, sizeof chunk, 0);
    if (n > 0) {
      peer.decoder.feed(chunk, static_cast<std::size_t>(n));
      NetTelemetry::add(tel_.bytesIn, n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    markLost(rank, n == 0 ? "connection closed" : "connection error");
    return;
  }
  try {
    while (auto frame = peer.decoder.next()) {
      peer.lastHeard = monotonicSeconds();
      ++framesReceived_;
      NetTelemetry::add(tel_.framesIn);
      switch (frame->type) {
        case FrameType::Message: {
          Message m;
          m.source = rank;
          m.tag = frame->tag;
          m.traceId = frame->traceId;
          m.parentSpan = frame->parentSpan;
          m.payload = mw::MessageBuffer(std::move(frame->payload));
          ++messagesReceived_;
          bytesReceived_ += m.payload.sizeBytes();
          inbox_.push_back(std::move(m));
          NetTelemetry::add(tel_.messagesIn);
          break;
        }
        case FrameType::Heartbeat:
          break;  // lastHeard already refreshed
        case FrameType::Telemetry:
          handleSnapshot(rank, parseTelemetrySnapshot(*frame));
          break;
        default:
          throw ProtocolError("unexpected handshake frame after registration");
      }
    }
  } catch (const ProtocolError&) {
    ++decodeErrors_;
    NetTelemetry::add(tel_.decodeErrors);
    markLost(rank, "protocol violation");
  }
}

void TcpCommWorld::handleSnapshot(Rank rank, const TelemetrySnapshot& snap) {
  Peer& peer = *peers_[static_cast<std::size_t>(rank) - 1];
  FleetHealth& h = peer.health;
  const double now = masterNow();
  h.seen = true;
  h.executeEwmaSeconds = snap.executeEwmaSeconds;
  h.tasksExecuted = snap.tasksExecuted;
  h.tasksFailed = snap.tasksFailed;
  h.bytesIn = snap.bytesIn;
  h.bytesOut = snap.bytesOut;
  h.messagesIn = snap.messagesIn;
  h.messagesOut = snap.messagesOut;
  h.queueDepth = snap.queueDepth;
  h.lastUpdateSeconds = now;
  // One NTP-style exchange per snapshot: the worker echoes our heartbeat
  // stamp plus how long it held it; what's left of the round trip is wire
  // time, split symmetrically for the offset estimate.
  if (snap.echoMasterTime > 0.0) {
    const double rtt = std::max(0.0, now - snap.echoMasterTime - snap.holdSeconds);
    h.rttSeconds = rtt;
    h.clockOffsetSeconds =
        (snap.workerNow - snap.holdSeconds) - snap.echoMasterTime - rtt / 2.0;
  }
  if (options_.telemetry == nullptr) return;
  auto& reg = options_.telemetry->metrics();
  const std::string prefix = "fleet.r" + std::to_string(rank) + ".";
  reg.gauge(prefix + "execute_ewma_seconds").set(h.executeEwmaSeconds);
  reg.gauge(prefix + "tasks_executed").set(static_cast<double>(h.tasksExecuted));
  reg.gauge(prefix + "tasks_failed").set(static_cast<double>(h.tasksFailed));
  reg.gauge(prefix + "bytes_in").set(static_cast<double>(h.bytesIn));
  reg.gauge(prefix + "bytes_out").set(static_cast<double>(h.bytesOut));
  reg.gauge(prefix + "messages_in").set(static_cast<double>(h.messagesIn));
  reg.gauge(prefix + "messages_out").set(static_cast<double>(h.messagesOut));
  reg.gauge(prefix + "queue_depth").set(static_cast<double>(h.queueDepth));
  if (h.rttSeconds >= 0.0) {
    reg.gauge(prefix + "rtt_seconds").set(h.rttSeconds);
    reg.gauge(prefix + "clock_offset_seconds").set(h.clockOffsetSeconds);
    // Anchor event for `sfopt trace`: maps this worker's clock onto ours so
    // merged span trees share a timeline.
    telemetry::Event e;
    e.type = "clock";
    e.name = "fleet.clock";
    e.time = now;
    e.numFields = {{"rank", static_cast<double>(rank)},
                   {"offset_seconds", h.clockOffsetSeconds},
                   {"rtt_seconds", h.rttSeconds}};
    options_.telemetry->sink().emit(e);
  }
}

void TcpCommWorld::pollOnce(double timeoutSeconds) {
  std::vector<pollfd> fds;
  // Order: listener, pending peers, live peers, live clients, then the
  // wake pipe (kinds recovered by index).
  // The pending count is snapshotted here: serviceListener() below may
  // append freshly accepted peers, which were never polled and must not be
  // indexed against this pass's fds — they get polled next pass.
  fds.push_back({listener_.fd(), POLLIN, 0});
  const std::size_t polledPending = pending_.size();
  for (const PendingPeer& p : pending_) fds.push_back({p.sock.fd(), POLLIN, 0});
  std::vector<Rank> liveRanks;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const Peer& p = *peers_[i];
    if (!p.alive) continue;
    short events = POLLIN;
    if (p.sendPos < p.sendBuf.size()) events |= POLLOUT;
    fds.push_back({p.sock.fd(), events, 0});
    liveRanks.push_back(static_cast<Rank>(i + 1));
  }
  std::vector<int> liveClients;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const ClientPeer& c = *clients_[i];
    if (!c.alive) continue;
    short events = POLLIN;
    if (c.sendPos < c.sendBuf.size()) events |= POLLOUT;
    fds.push_back({c.sock.fd(), events, 0});
    liveClients.push_back(static_cast<int>(i + 1));
  }
  fds.push_back({wakeRead_.fd(), POLLIN, 0});

  const int ready =
      ::poll(fds.data(), fds.size(), toPollMillis(std::min(timeoutSeconds, kPollSliceSeconds)));
  if (ready > 0) {
    if (fds.back().revents & POLLIN) {
      // Drain every pending wake-up so the next pass blocks again.
      char sink[64];
      while (::read(wakeRead_.fd(), sink, sizeof sink) > 0) {
      }
    }
    std::size_t idx = 0;
    if (fds[idx].revents & POLLIN) serviceListener();
    ++idx;
    // Walk pending list back to front so erasure is index-stable.
    for (std::size_t i = polledPending; i-- > 0;) {
      if (fds[idx + i].revents & (POLLIN | POLLERR | POLLHUP)) servicePending(i);
    }
    idx += polledPending;
    for (std::size_t i = 0; i < liveRanks.size(); ++i) {
      const short re = fds[idx + i].revents;
      const Rank rank = liveRanks[i];
      if (re & (POLLIN | POLLERR | POLLHUP)) servicePeer(rank);
      if ((re & POLLOUT) && peers_[static_cast<std::size_t>(rank) - 1]->alive) {
        flushPeer(rank);
      }
    }
    idx += liveRanks.size();
    for (std::size_t i = 0; i < liveClients.size(); ++i) {
      const short re = fds[idx + i].revents;
      const int client = liveClients[i];
      if (re & (POLLIN | POLLERR | POLLHUP)) serviceClient(client);
      if ((re & POLLOUT) && clients_[static_cast<std::size_t>(client) - 1]->alive) {
        flushClient(client);
      }
    }
  }

  // Heartbeat bookkeeping: beat every live peer on the cadence, declare
  // lost any peer silent past the timeout, and declare lost any peer whose
  // socket has refused our bytes past the send-stall deadline (a half-open
  // connection keeps heartbeating us, so recv silence never fires for it).
  const double now = monotonicSeconds();
  const double stallTimeout = options_.sendStallTimeoutSeconds > 0.0
                                  ? options_.sendStallTimeoutSeconds
                                  : options_.heartbeatTimeoutSeconds;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& p = *peers_[i];
    if (!p.alive) continue;
    const Rank rank = static_cast<Rank>(i + 1);
    if (now - p.lastBeat >= options_.heartbeatIntervalSeconds) {
      p.lastBeat = now;
      enqueueToPeer(rank, makeHeartbeatFrame(masterNow()));
      NetTelemetry::add(tel_.heartbeatsSent);
    }
    if (p.alive && now - p.lastHeard > options_.heartbeatTimeoutSeconds) {
      NetTelemetry::add(tel_.heartbeatMisses);
      markLost(rank, "heartbeat timeout");
    }
    if (p.alive && p.sendBlockedSince > 0.0 && now - p.sendBlockedSince > stallTimeout) {
      NetTelemetry::add(tel_.sendStalls);
      markLost(rank, "send stall");
    }
  }
}

std::optional<Message> TcpCommWorld::takeMatching(Rank source, int tag) {
  const auto it = std::find_if(inbox_.begin(), inbox_.end(),
                               [&](const Message& m) { return matches(m, source, tag); });
  if (it == inbox_.end()) return std::nullopt;
  Message m = std::move(*it);
  inbox_.erase(it);
  return m;
}

Message TcpCommWorld::recv(Rank at, Rank source, int tag) {
  checkMaster(at, "recv");
  for (;;) {
    if (auto m = takeMatching(source, tag)) return std::move(*m);
    pollOnce(kPollSliceSeconds);
  }
}

std::optional<Message> TcpCommWorld::recvFor(Rank at, double timeoutSeconds, Rank source,
                                             int tag) {
  checkMaster(at, "recvFor");
  const double deadline = monotonicSeconds() + timeoutSeconds;
  for (;;) {
    if (auto m = takeMatching(source, tag)) return m;
    const double remaining = deadline - monotonicSeconds();
    if (remaining <= 0.0) return std::nullopt;
    pollOnce(remaining);
  }
}

std::optional<Message> TcpCommWorld::tryRecv(Rank at, Rank source, int tag) {
  checkMaster(at, "tryRecv");
  if (auto m = takeMatching(source, tag)) return m;
  pollOnce(0.0);
  return takeMatching(source, tag);
}

// ---------------------------------------------------------------------------
// TcpWorkerTransport (worker)
// ---------------------------------------------------------------------------

TcpWorkerTransport::TcpWorkerTransport(const std::string& host, std::uint16_t port,
                                       Options options)
    : options_(options),
      sock_(tcpConnect(host, port, options.connectTimeoutSeconds)),
      decoder_(options.maxFrameBytes),
      tel_(NetTelemetry::registerIn(options.telemetry)) {
  // The master-silence clock starts at connect: a Welcome that takes more
  // than one poll slice is not silence past masterTimeoutSeconds.
  lastHeard_ = monotonicSeconds();
  {
    std::lock_guard lock(sendMutex_);
    writeFrameLocked(makeHelloFrame(), /*nothrow=*/false);
  }
  // Wait for the Welcome; any stray frames decoded alongside it (the
  // greeting often rides the same segment) stay queued for recv().
  const double deadline = monotonicSeconds() + options_.handshakeTimeoutSeconds;
  std::optional<Welcome> welcome;
  while (!welcome.has_value()) {
    const double remaining = deadline - monotonicSeconds();
    if (remaining <= 0.0) {
      throw ConnectionLost("handshake: no welcome from master within " +
                           std::to_string(options_.handshakeTimeoutSeconds) + "s");
    }
    fill(std::min(remaining, kPollSliceSeconds));
    while (auto frame = decoder_.next()) {
      if (frame->type == FrameType::Welcome) {
        welcome = parseWelcome(*frame);
        break;
      }
      if (frame->type == FrameType::Message) {
        Message m;
        m.source = 0;
        m.tag = frame->tag;
        m.traceId = frame->traceId;
        m.parentSpan = frame->parentSpan;
        m.payload = mw::MessageBuffer(std::move(frame->payload));
        inbox_.push_back(std::move(m));
        inboxDepth_.store(static_cast<std::uint32_t>(inbox_.size()));
      }
      if (frame->type == FrameType::Heartbeat && frame->senderTime > 0.0) {
        lastMasterBeat_.store(frame->senderTime);
        lastMasterBeatLocal_.store(localNow());
      }
    }
  }
  rank_ = welcome->rank;
  worldSize_ = welcome->worldSize;
  lastHeard_ = monotonicSeconds();
  NetTelemetry::add(tel_.connects);
  beat_ = std::thread([this] { beatLoop(); });
}

TcpWorkerTransport::~TcpWorkerTransport() {
  stopping_.store(true);
  stopCv_.notify_all();
  if (beat_.joinable()) beat_.join();
  sock_.close();
}

double TcpWorkerTransport::localNow() const {
  return options_.telemetry != nullptr ? options_.telemetry->clock().now()
                                       : monotonicSeconds();
}

void TcpWorkerTransport::beatLoop() {
  std::unique_lock lock(stopMutex_);
  while (!stopping_.load()) {
    stopCv_.wait_for(lock,
                     std::chrono::duration<double>(options_.heartbeatIntervalSeconds),
                     [this] { return stopping_.load(); });
    if (stopping_.load() || dead_.load()) continue;
    // Poll the provider while holding its mutex, so setStatsProvider({})
    // is a barrier: once it returns, the callback (and whatever worker
    // state it captured) is guaranteed not to be mid-invocation here.
    std::optional<WorkerStats> stats;
    {
      std::lock_guard providerLock(providerMutex_);
      if (statsProvider_) stats = statsProvider_();
    }
    std::lock_guard sendLock(sendMutex_);
    writeFrameLocked(makeHeartbeatFrame(localNow()), /*nothrow=*/true);
    NetTelemetry::add(tel_.heartbeatsSent);
    if (stats.has_value() && !dead_.load()) {
      TelemetrySnapshot snap;
      const double echo = lastMasterBeat_.load();
      snap.echoMasterTime = echo;
      snap.workerNow = localNow();
      snap.holdSeconds = echo > 0.0 ? snap.workerNow - lastMasterBeatLocal_.load() : 0.0;
      snap.tasksExecuted = stats->tasksExecuted;
      snap.tasksFailed = stats->tasksFailed;
      snap.executeEwmaSeconds = stats->executeEwmaSeconds;
      snap.bytesIn = rawBytesIn_.load();
      snap.bytesOut = rawBytesOut_.load();
      snap.messagesIn = atomicMessagesIn_.load();
      snap.messagesOut = atomicMessagesOut_.load();
      snap.queueDepth = inboxDepth_.load();
      writeFrameLocked(makeTelemetryFrame(snap), /*nothrow=*/true);
    }
  }
}

void TcpWorkerTransport::writeFrameLocked(const Frame& frame, bool nothrow) {
  std::vector<std::byte> wire;
  appendFrame(wire, frame);
  const double writeTimeout = options_.masterTimeoutSeconds > 0.0
                                  ? options_.masterTimeoutSeconds
                                  : kDefaultWriteTimeoutSeconds;
  const double deadline = monotonicSeconds() + writeTimeout;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    if (stopping_.load()) {
      // Destruction is waiting on the heartbeat thread (which writes under
      // sendMutex_); abandon the partial write so it can exit.
      dead_.store(true);
      if (nothrow) return;
      throw ConnectionLost("transport stopping while sending");
    }
    const ssize_t n =
        ::send(sock_.fd(), wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (monotonicSeconds() >= deadline) {
        dead_.store(true);
        NetTelemetry::add(tel_.disconnects);
        if (nothrow) return;
        throw ConnectionLost("master stopped draining its socket for " +
                             std::to_string(writeTimeout) + "s while sending");
      }
      pollfd pfd{sock_.fd(), POLLOUT, 0};
      (void)::poll(&pfd, 1, toPollMillis(kPollSliceSeconds));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    dead_.store(true);
    if (nothrow) return;
    throw ConnectionLost("master connection lost while sending");
  }
  ++framesSent_;
  rawBytesOut_ += wire.size();
  NetTelemetry::add(tel_.framesOut);
  NetTelemetry::add(tel_.bytesOut, static_cast<std::int64_t>(wire.size()));
}

void TcpWorkerTransport::fill(double timeoutSeconds) {
  if (dead_.load()) throw ConnectionLost("master connection lost");
  pollfd pfd{sock_.fd(), POLLIN, 0};
  const int ready = ::poll(&pfd, 1, toPollMillis(timeoutSeconds));
  if (ready <= 0) {
    if (options_.masterTimeoutSeconds > 0.0 &&
        monotonicSeconds() - lastHeard_ > options_.masterTimeoutSeconds) {
      dead_.store(true);
      NetTelemetry::add(tel_.heartbeatMisses);
      throw ConnectionLost("master silent past the heartbeat timeout");
    }
    return;
  }
  std::byte chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(sock_.fd(), chunk, sizeof chunk, 0);
    if (n > 0) {
      decoder_.feed(chunk, static_cast<std::size_t>(n));
      lastHeard_ = monotonicSeconds();
      rawBytesIn_ += static_cast<std::uint64_t>(n);
      NetTelemetry::add(tel_.bytesIn, n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Mark dead but return normally so frames already buffered (a shutdown
    // message often rides the connection's final segments) still reach the
    // caller; the next fill() throws via the dead_ check at entry.
    dead_.store(true);
    NetTelemetry::add(tel_.disconnects);
    return;
  }
}

void TcpWorkerTransport::readSome(double timeoutSeconds) {
  fill(timeoutSeconds);
  try {
    while (auto frame = decoder_.next()) {
      ++framesReceived_;
      NetTelemetry::add(tel_.framesIn);
      switch (frame->type) {
        case FrameType::Message: {
          Message m;
          m.source = 0;
          m.tag = frame->tag;
          m.traceId = frame->traceId;
          m.parentSpan = frame->parentSpan;
          m.payload = mw::MessageBuffer(std::move(frame->payload));
          ++messagesReceived_;
          bytesReceived_ += m.payload.sizeBytes();
          ++atomicMessagesIn_;
          inbox_.push_back(std::move(m));
          inboxDepth_.store(static_cast<std::uint32_t>(inbox_.size()));
          NetTelemetry::add(tel_.messagesIn);
          break;
        }
        case FrameType::Heartbeat:
          if (frame->senderTime > 0.0) {
            lastMasterBeat_.store(frame->senderTime);
            lastMasterBeatLocal_.store(localNow());
          }
          break;
        default:
          dead_.store(true);
          throw ConnectionLost("master sent an unexpected handshake frame");
      }
    }
  } catch (const ProtocolError&) {
    ++decodeErrors_;
    NetTelemetry::add(tel_.decodeErrors);
    dead_.store(true);
    throw;
  }
}

void TcpWorkerTransport::checkSelf(Rank r, const char* what) const {
  if (r != rank_) {
    throw std::invalid_argument(std::string("TcpWorkerTransport::") + what +
                                ": only the assigned rank lives on this transport");
  }
}

void TcpWorkerTransport::setStatsProvider(std::function<WorkerStats()> provider) {
  std::lock_guard lock(providerMutex_);
  statsProvider_ = std::move(provider);
}

void TcpWorkerTransport::send(Rank from, Rank to, int tag, mw::MessageBuffer payload,
                              std::uint64_t traceId, std::uint64_t parentSpan) {
  checkSelf(from, "send(from)");
  if (to != 0) {
    throw std::out_of_range("TcpWorkerTransport::send: workers only talk to rank 0");
  }
  const Frame frame = makeMessageFrame(tag, payload.releaseWire(), traceId, parentSpan);
  std::lock_guard lock(sendMutex_);
  writeFrameLocked(frame, /*nothrow=*/false);
  ++messagesSent_;
  ++atomicMessagesOut_;
  // Frame header: 4 len + 1 type + 4 tag + 8 trace + 8 parent.
  bytesSent_ += frame.payload.size() + 25;
  NetTelemetry::add(tel_.messagesOut);
}

std::optional<Message> TcpWorkerTransport::takeMatching(Rank source, int tag) {
  const auto it = std::find_if(inbox_.begin(), inbox_.end(),
                               [&](const Message& m) { return matches(m, source, tag); });
  if (it == inbox_.end()) return std::nullopt;
  Message m = std::move(*it);
  inbox_.erase(it);
  inboxDepth_.store(static_cast<std::uint32_t>(inbox_.size()));
  return m;
}

Message TcpWorkerTransport::recv(Rank at, Rank source, int tag) {
  checkSelf(at, "recv");
  for (;;) {
    if (auto m = takeMatching(source, tag)) return std::move(*m);
    readSome(kPollSliceSeconds);
  }
}

std::optional<Message> TcpWorkerTransport::recvFor(Rank at, double timeoutSeconds,
                                                   Rank source, int tag) {
  checkSelf(at, "recvFor");
  const double deadline = monotonicSeconds() + timeoutSeconds;
  for (;;) {
    if (auto m = takeMatching(source, tag)) return m;
    const double remaining = deadline - monotonicSeconds();
    if (remaining <= 0.0) return std::nullopt;
    readSome(std::min(remaining, kPollSliceSeconds));
  }
}

std::optional<Message> TcpWorkerTransport::tryRecv(Rank at, Rank source, int tag) {
  checkSelf(at, "tryRecv");
  if (auto m = takeMatching(source, tag)) return m;
  readSome(0.0);
  return takeMatching(source, tag);
}

double backoffDelaySeconds(int attempt, double initialBackoffSeconds,
                           std::uint64_t jitterSeed) {
  const int doublings = std::min(std::max(attempt, 1) - 1, 60);
  const double base = std::min(std::ldexp(initialBackoffSeconds, doublings), 5.0);
  // splitmix64 finalizer over (seed, attempt): cheap, stateless, and
  // well-scrambled even for adjacent seeds (rank 1 vs rank 2).
  std::uint64_t z =
      jitterSeed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(attempt);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  const double unit = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
  return base * (0.5 + unit);
}

std::unique_ptr<TcpWorkerTransport> connectWithBackoff(
    const std::string& host, std::uint16_t port, int attempts, double initialBackoffSeconds,
    const TcpWorkerTransport::Options& options, std::uint64_t jitterSeed) {
  for (int attempt = 1;; ++attempt) {
    try {
      return std::make_unique<TcpWorkerTransport>(host, port, options);
    } catch (const std::exception&) {
      if (attempt >= attempts) throw;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        backoffDelaySeconds(attempt, initialBackoffSeconds, jitterSeed)));
  }
}

}  // namespace sfopt::net
