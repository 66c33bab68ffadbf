#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "noise/stochastic_objective.hpp"
#include "stats/welford.hpp"

namespace sfopt::core {

/// Canonical evaluation chunk size (samples).  Backends report batch
/// results as per-chunk Welford moments on a fixed grid relative to the
/// request's startIndex: chunk j covers sample indices
/// [startIndex + 64 j, startIndex + 64 (j+1)) (the last chunk may be
/// partial).  Because Welford merging is not associative in floating
/// point, the chunk grid — not the shard or client split — defines the
/// merge tree: the master folds a batch's chunks left-to-right, so the
/// merged moments are bitwise independent of how the work was sharded
/// across workers, how many clients each worker ran, and in which order
/// shards completed.
///
/// Canonical-moment contract.  Two steps, and only these, define a
/// batch's moments, on every path (inline, in-process workers, TCP
/// workers, the daemon's fleet) and under every SIMD ISA:
///
///  1. Chunk moments: sampleChunks() draws each chunk through
///     StochasticObjective::sampleRun, whose out[i] is bit for bit
///     sample(x, {vertexId, first + i}), and reduces it with
///     simd::welfordChunk, the one 4-lane reducer every ISA runs.  A
///     chunk's moments are therefore a pure function of (objective, x,
///     vertexId, index range).  Nothing else turns samples into moments.
///  2. Batch fold: foldEvalChunks() merges a batch's chunk moments
///     left-to-right in chunk-index order.
inline constexpr std::int64_t kEvalChunkSamples = 64;

/// Number of chunks a batch of `count` samples decomposes into.
[[nodiscard]] constexpr std::int64_t evalChunkCount(std::int64_t count) noexcept {
  return (count + kEvalChunkSamples - 1) / kEvalChunkSamples;
}

/// Fold a batch's chunk moments in canonical (index) order (contract
/// step 2).  This is THE merge everybody must use so results stay bitwise
/// reproducible.
[[nodiscard]] inline stats::Welford foldEvalChunks(std::span<const stats::Welford> chunks) {
  stats::Welford merged;
  for (const stats::Welford& c : chunks) merged.merge(c);
  return merged;
}

/// Where the raw objective samples are computed: a ticketed, non-blocking
/// evaluation fabric.  submit() hands a batch over and returns at once;
/// poll() delivers whatever completed since the last call.  Results arrive
/// as canonical chunk moments (see kEvalChunkSamples), never pre-merged,
/// so the caller owns the merge order.  Submitted batches may complete in
/// any order.
///
/// SamplingContext drives a backend through an EvalScheduler; with no
/// backend it computes the same chunks inline on the calling thread and
/// folds them the same way.  The master-worker runtime (src/mw) ships each
/// batch to a worker process, and the multi-tenant service (src/service)
/// routes it through the daemon's shared fleet.  Because every sample is
/// keyed by (vertexId, sampleIndex) through the counter-based RNG and every
/// batch's moments follow the contract above, the merged estimate is
/// bitwise identical whichever path and ISA computed it, in whatever
/// order — the property the integration tests pin down.
class SamplingBackend {
 public:
  struct BatchRequest {
    std::span<const double> x;      ///< evaluation point
    std::uint64_t vertexId = 0;     ///< noise-stream id
    std::uint64_t startIndex = 0;   ///< first sample index in the batch
    std::int64_t count = 0;         ///< number of samples to draw
  };

  struct Completion {
    std::uint64_t ticket = 0;
    std::vector<stats::Welford> chunks;  ///< canonical chunk moments, in index order
  };

  virtual ~SamplingBackend() = default;

  /// Enqueue one batch; returns a ticket its completion will carry.
  [[nodiscard]] virtual std::uint64_t submit(const BatchRequest& request) = 0;

  /// Wait up to `timeoutSeconds` for at least one completion (0 = just
  /// drain what is already available; infinity = until one arrives).
  /// Returns every completion ready at that point; empty on timeout or
  /// when nothing is outstanding.  A backend with its own silence rule
  /// throws when that rule fires, whatever the timeout.
  [[nodiscard]] virtual std::vector<Completion> poll(double timeoutSeconds) = 0;

  /// How many batches the fabric can usefully run at once (live workers
  /// for the MW backend).  Used to size shards; always >= 1.
  [[nodiscard]] virtual int parallelism() const = 0;
};

/// The canonical chunk moments of `request` (contract step 1): one
/// Welford per 64 samples from request.startIndex, the last possibly
/// fewer, in index order.  THE sampling loop everybody must use: workers
/// return these chunks, and inline sampling folds them as the master
/// folds a worker's.
[[nodiscard]] std::vector<stats::Welford> sampleChunks(
    const noise::StochasticObjective& objective, const SamplingBackend::BatchRequest& request);

}  // namespace sfopt::core
