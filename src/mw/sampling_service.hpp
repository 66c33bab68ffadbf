#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/sampling_backend.hpp"
#include "mw/mw_driver.hpp"
#include "mw/mw_worker.hpp"
#include "mw/vertex_server.hpp"
#include "noise/stochastic_objective.hpp"

namespace sfopt::mw {

/// The one MW task of the optimization service: "evaluate `count`
/// samples of the objective at x for noise stream vertexId, starting at
/// startIndex".  The master marshals the input and the worker the result.
/// The result travels as canonical per-chunk Welford moments
/// (core::kEvalChunkSamples), never pre-merged, so the master controls the
/// merge order and stays bitwise reproducible across shard counts, client
/// counts and completion orders.
class SamplingTask {
 public:
  SamplingTask() = default;
  explicit SamplingTask(core::SamplingBackend::BatchRequest request)
      : x_(request.x.begin(), request.x.end()),
        vertexId_(request.vertexId),
        startIndex_(request.startIndex),
        count_(request.count) {}

  /// Marshal / unmarshal the work description.
  void packInput(MessageBuffer& buf) const;
  void unpackInput(MessageBuffer& buf);
  /// Marshal / unmarshal the computed chunk moments.
  void packResult(MessageBuffer& buf) const;
  void unpackResult(MessageBuffer& buf);

  [[nodiscard]] const std::vector<double>& x() const noexcept { return x_; }
  [[nodiscard]] std::uint64_t vertexId() const noexcept { return vertexId_; }
  [[nodiscard]] std::uint64_t startIndex() const noexcept { return startIndex_; }
  [[nodiscard]] std::int64_t count() const noexcept { return count_; }

  [[nodiscard]] const std::vector<stats::Welford>& chunks() const noexcept { return chunks_; }
  void setChunks(std::vector<stats::Welford> chunks) noexcept { chunks_ = std::move(chunks); }
  [[nodiscard]] std::vector<stats::Welford> releaseChunks() noexcept {
    return std::move(chunks_);
  }

 private:
  std::vector<double> x_;
  std::uint64_t vertexId_ = 0;
  std::uint64_t startIndex_ = 0;
  std::int64_t count_ = 0;
  std::vector<stats::Welford> chunks_;
};

/// The concrete MWWorker of the optimization service: unpacks a
/// SamplingTask, runs it through its VertexServer, and packs the
/// per-chunk moments back.  The receive loop is the server's client 0: it
/// samples the first chunk range itself, and Ns - 1 helper threads take
/// the rest, so at Ns = 1 a task never leaves this thread.
class SamplingWorker final : public MWWorker {
 public:
  SamplingWorker(net::Transport& comm, Rank rank, const noise::StochasticObjective& objective,
                 int clients);

 protected:
  void executeTask(MessageBuffer& in, MessageBuffer& out) override;

 private:
  VertexServer server_;
};

/// Bridges the optimization core to the MW runtime: every sampling batch
/// the algorithms request becomes a SamplingTask submitted to the driver,
/// and its ticket is the driver's task id.  Plug an instance into
/// SamplingContext::Options::backend.
class MWSamplingBackend final : public core::SamplingBackend {
 public:
  explicit MWSamplingBackend(MWDriver& driver) : driver_(driver) {}

  [[nodiscard]] std::uint64_t submit(const BatchRequest& request) override;
  [[nodiscard]] std::vector<Completion> poll(double timeoutSeconds) override;
  [[nodiscard]] int parallelism() const override;

 private:
  MWDriver& driver_;
};

}  // namespace sfopt::mw
