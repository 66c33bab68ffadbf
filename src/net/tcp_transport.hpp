#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace sfopt::telemetry {
class Telemetry;
class Counter;
}

namespace sfopt::net {

/// Pre-registered transport-layer metric handles (the `net` layer of the
/// observability spine).  All pointers are null when no telemetry is
/// attached; add() tolerates that, so the hot path never branches twice.
struct NetTelemetry {
  telemetry::Counter* messagesIn = nullptr;
  telemetry::Counter* messagesOut = nullptr;
  telemetry::Counter* bytesIn = nullptr;
  telemetry::Counter* bytesOut = nullptr;
  telemetry::Counter* connects = nullptr;
  telemetry::Counter* disconnects = nullptr;
  telemetry::Counter* heartbeatsSent = nullptr;
  telemetry::Counter* heartbeatMisses = nullptr;
  telemetry::Counter* sendsDropped = nullptr;
  telemetry::Counter* sendStalls = nullptr;
  telemetry::Counter* framesIn = nullptr;
  telemetry::Counter* framesOut = nullptr;
  telemetry::Counter* decodeErrors = nullptr;

  static NetTelemetry registerIn(telemetry::Telemetry* telemetry);
  static void add(telemetry::Counter* c, std::int64_t n = 1) noexcept;
};

/// Application-level counters a worker process exposes to its transport so
/// the heartbeat thread can ship them to the master (FrameType::Telemetry).
struct WorkerStats {
  std::uint64_t tasksExecuted = 0;
  std::uint64_t tasksFailed = 0;
  double executeEwmaSeconds = 0.0;
};

/// Rolling per-worker health the master accumulates from telemetry
/// snapshots.  All times are seconds; rttSeconds < 0 until the first
/// round-trip estimate lands.
struct FleetHealth {
  bool seen = false;                ///< any snapshot received yet
  double rttSeconds = -1.0;         ///< heartbeat round-trip estimate
  double clockOffsetSeconds = 0.0;  ///< worker clock minus master clock
  double executeEwmaSeconds = 0.0;
  std::uint64_t tasksExecuted = 0;
  std::uint64_t tasksFailed = 0;
  std::uint64_t bytesIn = 0;    ///< as counted by the worker
  std::uint64_t bytesOut = 0;
  std::uint64_t messagesIn = 0;
  std::uint64_t messagesOut = 0;
  std::uint32_t queueDepth = 0;
  double lastUpdateSeconds = 0.0;  ///< master clock time of latest snapshot
};

/// Knobs for the master side.  (Defined at namespace scope so it can be a
/// defaulted `= {}` constructor argument — a nested aggregate with default
/// member initializers cannot be.)
struct TcpMasterOptions {
  double heartbeatIntervalSeconds = 2.0;  ///< cadence of master->worker beats
  double heartbeatTimeoutSeconds = 10.0;  ///< silence after which a worker is lost
  /// A peer whose socket has accepted no bytes for this long while we have
  /// frames queued for it is lost — recv-silence alone cannot catch a
  /// half-open connection where the worker still heartbeats us but never
  /// drains its side (one-way partition, wedged middlebox).  0 falls back
  /// to heartbeatTimeoutSeconds.
  double sendStallTimeoutSeconds = 0.0;
  /// Cap on the per-peer userspace send backlog; exceeding it evicts the
  /// peer as lost rather than letting a stalled consumer grow the buffer
  /// without bound.  0 disables the cap (not recommended).
  std::size_t maxSendBufferBytes = std::size_t{64} << 20;
  std::size_t maxFrameBytes = kDefaultMaxFrameBytes;
  telemetry::Telemetry* telemetry = nullptr;
};

/// Knobs for the worker side.
struct TcpWorkerOptions {
  double heartbeatIntervalSeconds = 2.0;
  double masterTimeoutSeconds = 0.0;  ///< 0 = rely on TCP disconnect only
  double connectTimeoutSeconds = 10.0;
  double handshakeTimeoutSeconds = 10.0;
  std::size_t maxFrameBytes = kDefaultMaxFrameBytes;
  telemetry::Telemetry* telemetry = nullptr;
};

/// Master-side TCP transport: rank 0 of a distributed world.  Binds a
/// port, accepts worker connections, runs the Hello/Welcome handshake, and
/// assigns ranks 1..N in connection order.  The world grows as workers
/// join (including re-joins after a crash); a rank is never reused, so a
/// reconnecting worker appears as a fresh rank and the old one stays lost.
///
/// Peers announcing kPeerClient in their Hello register in a separate
/// client id space (they never consume worker ranks, never receive tasks,
/// and are invisible to size()/liveWorkers()/fleetHealth()).  Their Job*
/// frames surface through takeClientRequests() and replies go out via
/// sendToClient() — the job control plane of the multi-tenant service.
/// Clients are request/response peers: no heartbeat-silence eviction, a
/// closed connection simply retires the id.
///
/// Failure detection is three-pronged: a closed/reset connection is
/// noticed immediately via poll, a hung-but-open peer is noticed when its
/// heartbeats stop for `heartbeatTimeoutSeconds`, and a half-open peer
/// that still heartbeats us but stops draining its own socket is noticed
/// when our sends stall past `sendStallTimeoutSeconds` (or the backlog
/// exceeds `maxSendBufferBytes`).  Either way the loss is surfaced as a
/// kTagWorkerLost message so the MW driver requeues the worker's
/// in-flight task, and the lost rank's `fleet.r<N>.*` gauges are retired.
///
/// Threading: intended to be driven by one (master) thread.  All I/O
/// happens inside recv/recvFor/tryRecv/send/pump and waitForWorkers —
/// there is no background thread on the master side.  The one exception
/// is wake(), which any thread may call; the world must outlive every
/// thread that may call it.
class TcpCommWorld final : public Transport {
 public:
  using Options = TcpMasterOptions;

  /// Bind + listen; port 0 picks an ephemeral port (see port()).
  explicit TcpCommWorld(std::uint16_t port, Options options = {});
  ~TcpCommWorld() override;

  TcpCommWorld(const TcpCommWorld&) = delete;
  TcpCommWorld& operator=(const TcpCommWorld&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Message delivered to every worker right after its Welcome (and again
  /// to every later joiner) — the application uses this to push the
  /// objective/deployment configuration without a separate exchange.
  void setGreeting(int tag, mw::MessageBuffer payload);

  /// Block until `count` workers are connected and registered (or throw
  /// std::runtime_error after `timeoutSeconds`).  Returns the live count.
  int waitForWorkers(int count, double timeoutSeconds);

  [[nodiscard]] int liveWorkers() const noexcept;

  /// Latest health snapshot for every registered rank (index = rank - 1).
  /// Entries with !seen never shipped telemetry (or predate v2 workers).
  [[nodiscard]] std::vector<FleetHealth> fleetHealth() const;

  /// One Job* frame received from a registered client peer.
  struct ClientRequest {
    int client = 0;  ///< client id (1-based, never a worker rank)
    FrameType type = FrameType::JobSubmit;
    mw::MessageBuffer payload;
  };

  /// Drain every client job frame received so far (the daemon's control
  /// plane inbox).  Requests surface in arrival order.
  [[nodiscard]] std::vector<ClientRequest> takeClientRequests();

  /// Send a Job* reply to a client; silently dropped when the client is
  /// gone (mirrors send()'s contract for lost workers).
  void sendToClient(int client, FrameType type, mw::MessageBuffer payload);

  /// Clients currently connected (registered and not yet closed).
  [[nodiscard]] int connectedClients() const noexcept;

  /// Drive one pass of the event loop without receiving: accepts joiners,
  /// reads client/worker frames into the inboxes, flushes pending writes,
  /// runs heartbeat bookkeeping.  The daemon loop blocks here, and only
  /// here: any socket event or a wake() ends the wait early.
  void pump(double timeoutSeconds);

  /// Thread-safe: make the current (or next) poll pass return at once by
  /// writing the world's self-pipe.  The daemon's engine threads call it
  /// when they hand the loop work that no socket carries.
  void wake() noexcept;

  // -- Transport (at/from must be rank 0) ---------------------------------
  [[nodiscard]] int size() const noexcept override;
  void send(Rank from, Rank to, int tag, mw::MessageBuffer payload,
            std::uint64_t traceId = 0, std::uint64_t parentSpan = 0) override;
  [[nodiscard]] Message recv(Rank at, Rank source = kAnySource, int tag = kAnyTag) override;
  [[nodiscard]] std::optional<Message> recvFor(Rank at, double timeoutSeconds,
                                               Rank source = kAnySource,
                                               int tag = kAnyTag) override;
  [[nodiscard]] std::optional<Message> tryRecv(Rank at, Rank source = kAnySource,
                                               int tag = kAnyTag) override;
  [[nodiscard]] std::uint64_t messagesSent() const override { return messagesSent_; }
  [[nodiscard]] std::uint64_t bytesSent() const override { return bytesSent_; }
  [[nodiscard]] std::uint64_t messagesReceived() const override { return messagesReceived_; }
  [[nodiscard]] std::uint64_t bytesReceived() const override { return bytesReceived_; }
  [[nodiscard]] std::uint64_t framesSent() const override { return framesSent_; }
  [[nodiscard]] std::uint64_t framesReceived() const override { return framesReceived_; }
  [[nodiscard]] std::uint64_t decodeErrors() const override { return decodeErrors_; }

 private:
  struct Peer {
    Socket sock;
    FrameDecoder decoder;
    std::vector<std::byte> sendBuf;
    std::size_t sendPos = 0;
    double lastHeard = 0.0;
    double lastBeat = 0.0;
    /// When the kernel first refused our bytes with a backlog pending
    /// (0 = sends are flowing).  Half-open detection: a peer that keeps
    /// heartbeating us but never drains its socket trips this deadline,
    /// not the recv-silence one.
    double sendBlockedSince = 0.0;
    bool alive = false;
    FleetHealth health;
  };
  struct PendingPeer {
    Socket sock;
    FrameDecoder decoder;
    double since = 0.0;
  };
  /// A registered client peer (service control plane, not a worker rank).
  struct ClientPeer {
    Socket sock;
    FrameDecoder decoder;
    std::vector<std::byte> sendBuf;
    std::size_t sendPos = 0;
    bool alive = false;
  };

  /// One pass of the event loop: poll the listener + every socket for at
  /// most `timeoutSeconds`, service reads/writes/accepts, then run the
  /// heartbeat bookkeeping.
  void pollOnce(double timeoutSeconds);
  void serviceListener();
  void servicePending(std::size_t index);
  void servicePeer(Rank rank);
  void handleSnapshot(Rank rank, const TelemetrySnapshot& snap);
  /// Master time on the telemetry clock when attached (so heartbeat stamps
  /// line up with trace timestamps), else the monotonic process clock.
  [[nodiscard]] double masterNow() const;
  void promotePending(std::size_t index);
  void promoteClient(std::size_t index);
  void serviceClient(int client);
  void flushClient(int client);
  void dropClient(int client);
  void flushPeer(Rank rank);
  void enqueueToPeer(Rank rank, const Frame& frame);
  void markLost(Rank rank, const char* why);
  /// Zero the lost rank's `fleet.r<N>.*` gauges and reset its FleetHealth
  /// so a reconnecting worker (which gets a fresh rank) leaves no stale
  /// readings behind under the old keys.
  void retireFleetTelemetry(Rank rank);
  [[nodiscard]] std::optional<Message> takeMatching(Rank source, int tag);
  void checkMaster(Rank at, const char* what) const;

  Options options_;
  Socket listener_;
  std::uint16_t port_ = 0;
  Socket wakeRead_;   ///< self-pipe read end; in every poll set
  Socket wakeWrite_;  ///< self-pipe write end; wake() writes one byte
  std::vector<std::unique_ptr<Peer>> peers_;        ///< index = rank - 1
  std::vector<PendingPeer> pending_;                ///< accepted, awaiting Hello
  std::vector<std::unique_ptr<ClientPeer>> clients_;  ///< index = client id - 1
  std::deque<Message> inbox_;
  std::deque<ClientRequest> clientInbox_;
  std::optional<std::pair<int, std::vector<std::byte>>> greeting_;
  std::uint64_t messagesSent_ = 0;
  std::uint64_t bytesSent_ = 0;
  std::uint64_t messagesReceived_ = 0;
  std::uint64_t bytesReceived_ = 0;
  std::uint64_t framesSent_ = 0;
  std::uint64_t framesReceived_ = 0;
  std::uint64_t decodeErrors_ = 0;
  NetTelemetry tel_;
};

/// Worker-side TCP transport: connects to a TcpCommWorld master, performs
/// the handshake, and then behaves as the assigned rank.  recv() delivers
/// master messages (source 0) and throws ConnectionLost when the master
/// goes away, which the worker CLI uses to drive reconnection.
///
/// Heartbeats to the master are sent from a small background thread so
/// they keep flowing while the worker is busy inside a long task — a
/// healthy-but-slow worker must not look dead to the master.
class TcpWorkerTransport final : public Transport {
 public:
  using Options = TcpWorkerOptions;

  /// Connect + handshake (throws std::runtime_error / ProtocolError /
  /// ConnectionLost on failure), then start the heartbeat thread.
  TcpWorkerTransport(const std::string& host, std::uint16_t port, Options options = {});
  ~TcpWorkerTransport() override;

  TcpWorkerTransport(const TcpWorkerTransport&) = delete;
  TcpWorkerTransport& operator=(const TcpWorkerTransport&) = delete;

  /// Rank assigned by the master in the Welcome.
  [[nodiscard]] Rank rank() const noexcept { return rank_; }

  /// Install the callback the heartbeat thread polls for application-level
  /// stats; each beat then carries a TelemetrySnapshot to the master.  The
  /// callback must be thread-safe (it runs on the heartbeat thread while
  /// the worker executes tasks).  Passing an empty function detaches it
  /// and acts as a barrier: on return, no invocation is in flight — clear
  /// the provider before destroying whatever it captures.
  void setStatsProvider(std::function<WorkerStats()> provider);

  // -- Transport (at/from must be rank()) ---------------------------------
  [[nodiscard]] int size() const noexcept override { return worldSize_; }
  void send(Rank from, Rank to, int tag, mw::MessageBuffer payload,
            std::uint64_t traceId = 0, std::uint64_t parentSpan = 0) override;
  [[nodiscard]] Message recv(Rank at, Rank source = kAnySource, int tag = kAnyTag) override;
  [[nodiscard]] std::optional<Message> recvFor(Rank at, double timeoutSeconds,
                                               Rank source = kAnySource,
                                               int tag = kAnyTag) override;
  [[nodiscard]] std::optional<Message> tryRecv(Rank at, Rank source = kAnySource,
                                               int tag = kAnyTag) override;
  [[nodiscard]] std::uint64_t messagesSent() const override { return messagesSent_; }
  [[nodiscard]] std::uint64_t bytesSent() const override { return bytesSent_; }
  [[nodiscard]] std::uint64_t messagesReceived() const override { return messagesReceived_; }
  [[nodiscard]] std::uint64_t bytesReceived() const override { return bytesReceived_; }
  [[nodiscard]] std::uint64_t framesSent() const override { return framesSent_.load(); }
  [[nodiscard]] std::uint64_t framesReceived() const override { return framesReceived_; }
  [[nodiscard]] std::uint64_t decodeErrors() const override { return decodeErrors_; }

 private:
  void beatLoop();
  /// Worker time on the telemetry clock when attached, else monotonic.
  [[nodiscard]] double localNow() const;
  /// Blocking framed write under sendMutex_; marks the connection dead and
  /// throws ConnectionLost on failure (unless `nothrow`).
  void writeFrameLocked(const Frame& frame, bool nothrow);
  /// Poll + read raw bytes into the decoder for at most `timeoutSeconds`
  /// without dispatching frames (the handshake pulls its Welcome out by
  /// hand).  Throws ConnectionLost when the socket closes or errors.
  void fill(double timeoutSeconds);
  /// fill(), then dispatch every decoded frame (messages to the inbox,
  /// heartbeats to lastHeard_); handshake frames after registration are a
  /// protocol violation.
  void readSome(double timeoutSeconds);
  [[nodiscard]] std::optional<Message> takeMatching(Rank source, int tag);
  void checkSelf(Rank r, const char* what) const;

  Options options_;
  Socket sock_;
  FrameDecoder decoder_;
  std::deque<Message> inbox_;
  Rank rank_ = -1;
  int worldSize_ = 0;
  double lastHeard_ = 0.0;
  std::uint64_t messagesSent_ = 0;
  std::uint64_t bytesSent_ = 0;
  std::uint64_t messagesReceived_ = 0;
  std::uint64_t bytesReceived_ = 0;
  std::uint64_t framesReceived_ = 0;
  std::uint64_t decodeErrors_ = 0;
  NetTelemetry tel_;

  // Written by both the user thread and the heartbeat thread.
  std::atomic<std::uint64_t> framesSent_{0};
  std::atomic<std::uint64_t> rawBytesIn_{0};
  std::atomic<std::uint64_t> rawBytesOut_{0};
  std::atomic<std::uint64_t> atomicMessagesIn_{0};
  std::atomic<std::uint64_t> atomicMessagesOut_{0};
  std::atomic<std::uint32_t> inboxDepth_{0};
  std::atomic<double> lastMasterBeat_{0.0};       ///< master-clock stamp
  std::atomic<double> lastMasterBeatLocal_{0.0};  ///< our clock at arrival
  std::mutex providerMutex_;
  std::function<WorkerStats()> statsProvider_;

  std::mutex sendMutex_;
  std::atomic<bool> dead_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stopMutex_;
  std::condition_variable stopCv_;
  std::thread beat_;
};

/// Delay before retry `attempt` (1-based) of a backoff loop: the classic
/// doubling schedule (initialBackoffSeconds * 2^(attempt-1), capped at 5 s)
/// scaled by a deterministic jitter factor in [0.5, 1.5) hashed from
/// (jitterSeed, attempt).  Seeding by rank decorrelates a fleet that lost
/// its master simultaneously — without jitter every worker would retry on
/// the same schedule and thundering-herd the accept loop on restart.  Pure
/// function of its arguments, so tests can pin the exact sequence.
[[nodiscard]] double backoffDelaySeconds(int attempt, double initialBackoffSeconds,
                                         std::uint64_t jitterSeed);

/// Construct a TcpWorkerTransport, retrying on the jittered doubling
/// schedule of backoffDelaySeconds() (seeded by `jitterSeed`); `attempts`
/// tries.  Rethrows the final failure.
[[nodiscard]] std::unique_ptr<TcpWorkerTransport> connectWithBackoff(
    const std::string& host, std::uint16_t port, int attempts, double initialBackoffSeconds,
    const TcpWorkerTransport::Options& options = {}, std::uint64_t jitterSeed = 0);

}  // namespace sfopt::net
