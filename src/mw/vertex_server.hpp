#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sampling_backend.hpp"
#include "noise/stochastic_objective.hpp"
#include "stats/welford.hpp"

namespace sfopt::mw {

/// Most clients (Ns) one vertex server runs; each beyond the first is a
/// helper thread.  Every caller in the repo uses Ns <= 4.
inline constexpr std::int64_t kMaxVertexClients = 64;

/// The vertex-level tier of the paper's architecture (section 4.3): each
/// MW worker is paired with a *server* that coordinates Ns *client*
/// processes, each running one sampling simulation.  "Each vertex has one
/// server process running and Ns client processes ... the server process
/// communicates with the client processes and coordinates the start and
/// end of each simulation."
///
/// Here a sampling batch is split into Ns contiguous chunk ranges, so
/// results are independent of scheduling (counter-based RNG keys).  The
/// thread that calls runBatchChunks — an MW worker's receive loop — is
/// client 0 and samples the first range itself; clients 1..Ns-1 are
/// persistent helper threads woken once per batch.  At Ns = 1 the server
/// owns no thread and a batch is one core::sampleChunks call.
///
/// Thread-compatible: one batch at a time.  clientSampleCounts() reads
/// between batches, on the calling thread.
class VertexServer {
 public:
  /// Throws std::invalid_argument, before starting any thread, unless
  /// 1 <= clients <= kMaxVertexClients.
  VertexServer(const noise::StochasticObjective& objective, std::int64_t clients);
  ~VertexServer();

  VertexServer(const VertexServer&) = delete;
  VertexServer& operator=(const VertexServer&) = delete;

  /// Run one sampling batch and return its canonical per-chunk moments
  /// (see core::kEvalChunkSamples): whole chunks are handed out
  /// contiguously across the Ns clients, so chunk j is always the same
  /// 64-sample reduction no matter how many clients computed the batch —
  /// the master's canonical chunk fold is then bitwise independent of
  /// every deployment knob.  Blocking; safe to call repeatedly.
  ///
  /// If the objective throws, this still waits for every client's range
  /// to finish, then rethrows the exception of the lowest-index client
  /// that failed; the server stays usable for the next batch.
  [[nodiscard]] std::vector<stats::Welford> runBatchChunks(
      const core::SamplingBackend::BatchRequest& request);

  [[nodiscard]] int clientCount() const noexcept {
    return static_cast<int>(clientSamples_.size());
  }

  /// Total samples computed by each client (diagnostics / load balance).
  [[nodiscard]] std::vector<std::int64_t> clientSampleCounts() const { return clientSamples_; }

 private:
  /// Sample client `client`'s range of `request`; returns its chunk
  /// moments in index order.
  [[nodiscard]] std::vector<stats::Welford> sampleShare(
      const core::SamplingBackend::BatchRequest& request, std::size_t client);

  void helperLoop(std::size_t client);

  const noise::StochasticObjective& objective_;
  std::vector<std::int64_t> clientSamples_;

  // Helper hand-off, used only when Ns > 1.  `batch_` points at the
  // caller's request, which outlives the batch: runBatchChunks returns
  // only once every helper is done with it.
  std::mutex mutex_;
  std::condition_variable batchReady_;
  std::condition_variable batchDone_;
  const core::SamplingBackend::BatchRequest* batch_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t remaining_ = 0;
  bool stopping_ = false;
  // Indexed by client; slot 0 (the caller's) stays empty.
  std::vector<std::vector<stats::Welford>> partialChunks_;
  std::vector<std::exception_ptr> errors_;

  std::vector<std::thread> helpers_;
};

}  // namespace sfopt::mw
