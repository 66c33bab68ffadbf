#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/sampling_backend.hpp"
#include "stats/welford.hpp"

namespace sfopt::telemetry {
class Telemetry;
class Counter;
class Gauge;
class Histogram;
}

namespace sfopt::core {

/// Turns refinement batches into shardable sub-batch tickets over a
/// SamplingBackend and merges the completed shards back in canonical
/// order, so the evaluation fabric can be kept busy without perturbing a
/// single bit of the optimization trajectory.  SamplingContext routes every
/// backend refine through one; with both options off each batch is a
/// single ticket.
///
/// Two independent options:
///
///  * **Sharding** (shardMinSamples > 0): a batch larger than the
///    threshold is split into up to `parallelism()` chunk-aligned shards
///    that run on different workers.  Shard boundaries always fall on the
///    canonical 64-sample chunk grid (kEvalChunkSamples), and the merge
///    folds the *chunks* — not the shards — in index order, so the merged
///    moments are bitwise identical whatever the shard count or completion
///    order.
///
///  * **Speculation** (speculate = true): callers pass the refinement they
///    expect to issue next as a hint; the scheduler submits it while the
///    caller is still blocked on (or deciding after) the current round.
///    Completed speculative chunks land in a staging buffer keyed by
///    (vertexId, startIndex, count) and are only handed out — and only
///    then charged by the caller to the sample counter and virtual clock —
///    when a later evaluate() asks for exactly that batch.  A hint that is
///    never consumed (gate opened, comparison resolved, vertex replaced)
///    is evicted without ever touching the trajectory, so speculation is
///    invisible to the paper's time accounting.
///
/// Memory is bounded by 2 x backend parallelism, read on every call (one
/// round ahead): speculative submits stop when the in-flight ticket count
/// would pass it, and the staging buffer holds at most that many batches
/// (oldest evicted first; evicting an entry with tickets still in flight
/// is safe — their completions are dropped).
class EvalScheduler {
 public:
  struct Options {
    /// Shard a batch across workers once it exceeds this many samples;
    /// 0 disables sharding (every batch is a single ticket).
    std::int64_t shardMinSamples = 0;
    /// Honor prefetch hints; off = hints are ignored.
    bool speculate = false;
    /// Observability spine (non-owning).  Registers eval.shards_per_batch,
    /// eval.speculation_hits / _misses (counted only while speculating) and
    /// the eval.speculation_hit_rate gauge, the rate over those spine-wide
    /// counters.  nullptr = uninstrumented.
    telemetry::Telemetry* telemetry = nullptr;
  };

  EvalScheduler(SamplingBackend& backend, Options options);

  /// Evaluate `requests` (blocking) and return one merged accumulator per
  /// request, in request order.  Zero-count requests yield an empty
  /// accumulator without touching the backend.  `hints` describes the
  /// batches the caller expects to need next; when speculation is on they
  /// are submitted before this call blocks, so workers stay busy across
  /// the caller's decide step.  The wait has no bound of its own: a
  /// backend judges silence itself and throws out of poll().
  [[nodiscard]] std::vector<stats::Welford> evaluate(
      std::span<const SamplingBackend::BatchRequest> requests,
      std::span<const SamplingBackend::BatchRequest> hints = {});

  /// Tickets submitted but not yet completed (demand + speculative).
  [[nodiscard]] std::size_t outstandingTickets() const noexcept { return ticketRoute_.size(); }

  /// Staged speculative batches (completed or still in flight).
  [[nodiscard]] std::size_t stagedBatches() const noexcept { return staged_.size(); }

  /// Demanded batches found staged / submitted fresh; both stay 0 unless
  /// speculation is on.
  [[nodiscard]] std::uint64_t speculationHits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t speculationMisses() const noexcept { return misses_; }
  /// Speculative batches never submitted because the in-flight cap was hit.
  [[nodiscard]] std::uint64_t speculationSkipped() const noexcept { return skipped_; }
  /// Staged batches evicted unconsumed (mis-speculation or FIFO pressure).
  [[nodiscard]] std::uint64_t stagedEvicted() const noexcept { return evicted_; }

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  /// Identity of a stageable batch.  The point x is implied: a vertex id
  /// names an immutable location, so (vertexId, startIndex, count) pins
  /// the exact sample set.
  struct BatchKey {
    std::uint64_t vertexId = 0;
    std::uint64_t startIndex = 0;
    std::int64_t count = 0;
    auto operator<=>(const BatchKey&) const = default;
  };

  /// One batch in flight or staged: chunk slots fill as shard completions
  /// arrive (a shard's chunks map to a contiguous slot range).
  struct Entry {
    std::vector<stats::Welford> chunks;
    std::int64_t chunksFilled = 0;
    std::int64_t chunksTotal = 0;
    int ticketsOutstanding = 0;
    bool speculative = false;
    /// Entry generation: tickets record it at submit time and
    /// routeCompletion drops completions whose generation does not match,
    /// so a stale ticket from an evicted entry can never fill a re-created
    /// entry for the same key.
    std::uint64_t sequence = 0;
    [[nodiscard]] bool complete() const noexcept { return chunksFilled == chunksTotal; }
  };

  /// Shard count submitSharded would use for a batch of `count` samples.
  [[nodiscard]] std::int64_t plannedShards(std::int64_t count) const;

  /// Split `request` into chunk-aligned shards and submit them, wiring
  /// each ticket back to `key`'s chunk slots.  Returns the shard count.
  int submitSharded(const SamplingBackend::BatchRequest& request, const BatchKey& key);

  /// Block until every entry in `needed` is complete (or time out).
  void collect(const std::vector<BatchKey>& needed);

  void routeCompletion(const SamplingBackend::Completion& completion);

  /// Drop staged entries that can no longer match (same vertex, start
  /// index already consumed past) and enforce the staging cap.
  void evictSuperseded(std::uint64_t vertexId, std::uint64_t consumedEnd);
  void enforceStagingCap();
  void dropEntry(const BatchKey& key);

  /// The in-flight ticket cap and the staging cap: 2 x parallelism.
  [[nodiscard]] std::size_t speculationCap() const;

  SamplingBackend& backend_;
  Options options_;

  std::map<BatchKey, Entry> entries_;
  struct TicketRoute {
    BatchKey key;
    std::int64_t firstChunk = 0;
    std::uint64_t generation = 0;  ///< Entry::sequence at submit time
  };
  std::unordered_map<std::uint64_t, TicketRoute> ticketRoute_;
  /// Staged = speculative entries not yet demanded, in submit order.
  std::deque<BatchKey> staged_;
  std::uint64_t nextSequence_ = 0;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t evicted_ = 0;

  telemetry::Histogram* telShardsPerBatch_ = nullptr;
  telemetry::Counter* telHits_ = nullptr;
  telemetry::Counter* telMisses_ = nullptr;
  telemetry::Gauge* telHitRate_ = nullptr;
  telemetry::Counter* telEvicted_ = nullptr;
};

}  // namespace sfopt::core
