#include "core/eval_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace sfopt::core {

EvalScheduler::EvalScheduler(SamplingBackend& backend, Options options)
    : backend_(backend), options_(options) {
  if (options_.shardMinSamples < 0) {
    throw std::invalid_argument("EvalScheduler: shardMinSamples must be >= 0");
  }
  if (options_.maxOutstandingShards < 0 || options_.maxStagedEntries < 0) {
    throw std::invalid_argument("EvalScheduler: caps must be >= 0");
  }
  if (options_.telemetry != nullptr) {
    auto& reg = options_.telemetry->metrics();
    telShardsPerBatch_ =
        &reg.histogram("eval.shards_per_batch", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
    telHits_ = &reg.counter("eval.speculation_hits");
    telMisses_ = &reg.counter("eval.speculation_misses");
    telHitRate_ = &reg.gauge("eval.speculation_hit_rate");
    telEvicted_ = &reg.counter("eval.staged_evicted");
  }
}

int EvalScheduler::resolvedOutstandingCap() const {
  if (options_.maxOutstandingShards > 0) return options_.maxOutstandingShards;
  return 2 * std::max(backend_.parallelism(), 1);
}

int EvalScheduler::resolvedStagingCap() const {
  if (options_.maxStagedEntries > 0) return options_.maxStagedEntries;
  return resolvedOutstandingCap();
}

std::int64_t EvalScheduler::plannedShards(std::int64_t count) const {
  if (options_.shardMinSamples <= 0 || count <= options_.shardMinSamples) return 1;
  const std::int64_t chunks = evalChunkCount(count);
  const std::int64_t byThreshold =
      (count + options_.shardMinSamples - 1) / options_.shardMinSamples;
  const std::int64_t shards =
      std::min({static_cast<std::int64_t>(std::max(backend_.parallelism(), 1)),
                byThreshold, chunks});
  return std::max<std::int64_t>(shards, 1);
}

int EvalScheduler::submitSharded(const SamplingBackend::BatchRequest& request,
                                 const BatchKey& key) {
  const std::int64_t chunks = evalChunkCount(request.count);
  const std::int64_t shards = plannedShards(request.count);
  Entry& entry = entries_.at(key);
  const std::int64_t base = chunks / shards;
  const std::int64_t extra = chunks % shards;
  std::int64_t chunkFirst = 0;
  for (std::int64_t s = 0; s < shards; ++s) {
    const std::int64_t shardChunks = base + (s < extra ? 1 : 0);
    const std::int64_t sampleOffset = chunkFirst * kEvalChunkSamples;
    const std::int64_t shardSamples =
        std::min(shardChunks * kEvalChunkSamples, request.count - sampleOffset);
    const SamplingBackend::BatchRequest shard{
        request.x, request.vertexId,
        request.startIndex + static_cast<std::uint64_t>(sampleOffset), shardSamples};
    const std::uint64_t ticket = backend_.submit(shard);
    ticketRoute_[ticket] = TicketRoute{key, chunkFirst, entry.sequence};
    ++entry.ticketsOutstanding;
    chunkFirst += shardChunks;
  }
  if (telShardsPerBatch_ != nullptr) {
    telShardsPerBatch_->observe(static_cast<double>(shards));
  }
  return static_cast<int>(shards);
}

void EvalScheduler::routeCompletion(const SamplingBackend::Completion& completion) {
  // Terminal trace markers for the shard span tree: every ticket the
  // backend completed ends life here as folded into its batch entry or
  // discarded (evicted / stale generation).  Zero-duration spans keyed by
  // the ticket as the trace id, matching the MW driver's shard spans.
  const auto traceTerminal = [&](const char* name, const char* reason,
                                 double chunks) {
    if (options_.telemetry == nullptr) return;
    auto& tracer = options_.telemetry->tracer();
    std::vector<std::pair<std::string, std::string>> strFields;
    if (reason != nullptr) strFields.emplace_back("reason", reason);
    tracer.emitComplete(name, tracer.now(), 0, std::move(strFields),
                        {{"chunks", chunks}}, completion.ticket);
  };
  const auto routeIt = ticketRoute_.find(completion.ticket);
  if (routeIt == ticketRoute_.end()) {
    throw std::logic_error("EvalScheduler: completion for unknown ticket");
  }
  const TicketRoute route = routeIt->second;
  ticketRoute_.erase(routeIt);
  const auto entryIt = entries_.find(route.key);
  if (entryIt == entries_.end()) {
    // Evicted while in flight: drop.
    traceTerminal("shard.discarded", "evicted",
                  static_cast<double>(completion.chunks.size()));
    return;
  }
  Entry& entry = entryIt->second;
  if (entry.sequence != route.generation) {
    // Stale ticket: its entry was evicted and the key re-created since.
    // The fresh entry has its own tickets; filling from this one would
    // double-count chunksFilled and could mark the entry complete while
    // slots belonging to unfinished fresh tickets are still empty.
    traceTerminal("shard.discarded", "stale",
                  static_cast<double>(completion.chunks.size()));
    return;
  }
  const auto n = static_cast<std::int64_t>(completion.chunks.size());
  if (route.firstChunk + n > entry.chunksTotal) {
    throw std::logic_error("EvalScheduler: completion overruns its batch");
  }
  for (std::int64_t j = 0; j < n; ++j) {
    entry.chunks[static_cast<std::size_t>(route.firstChunk + j)] = completion.chunks[
        static_cast<std::size_t>(j)];
  }
  entry.chunksFilled += n;
  --entry.ticketsOutstanding;
  traceTerminal("shard.folded", nullptr, static_cast<double>(n));
}

void EvalScheduler::collect(const std::vector<BatchKey>& needed) {
  const auto allDone = [&] {
    for (const BatchKey& k : needed) {
      if (!entries_.at(k).complete()) return false;
    }
    return true;
  };
  // The deadline bounds *silence*, not total runtime: every completion
  // pushes it out, so a long evaluation making steady progress never
  // trips it.
  const auto window = std::chrono::duration<double>(options_.timeoutSeconds);
  auto deadline = std::chrono::steady_clock::now() + window;
  while (!allDone()) {
    const double remaining = std::chrono::duration<double>(
                                 deadline - std::chrono::steady_clock::now())
                                 .count();
    if (remaining <= 0.0) {
      throw std::runtime_error(
          "EvalScheduler: backend silent for " + std::to_string(options_.timeoutSeconds) +
          "s with results outstanding");
    }
    const auto completions = backend_.poll(remaining);
    if (completions.empty()) continue;  // deadline check handles the timeout
    for (const auto& c : completions) routeCompletion(c);
    deadline = std::chrono::steady_clock::now() + window;
  }
}

void EvalScheduler::dropEntry(const BatchKey& key) {
  // In-flight tickets stay in ticketRoute_ (they still occupy the fabric
  // and count against the outstanding cap); their completions are dropped
  // when they arrive and find no entry.
  entries_.erase(key);
}

void EvalScheduler::evictSuperseded(std::uint64_t vertexId, std::uint64_t consumedEnd) {
  // Sample counts only grow, so a staged batch starting before the
  // consumed end can never be asked for again.
  for (auto it = staged_.begin(); it != staged_.end();) {
    if (it->vertexId == vertexId && it->startIndex < consumedEnd) {
      dropEntry(*it);
      it = staged_.erase(it);
      ++evicted_;
      if (telEvicted_ != nullptr) telEvicted_->add(1);
    } else {
      ++it;
    }
  }
}

void EvalScheduler::enforceStagingCap() {
  const auto cap = static_cast<std::size_t>(resolvedStagingCap());
  while (staged_.size() > cap) {
    dropEntry(staged_.front());
    staged_.pop_front();
    ++evicted_;
    if (telEvicted_ != nullptr) telEvicted_->add(1);
  }
}

std::vector<stats::Welford> EvalScheduler::evaluate(
    std::span<const SamplingBackend::BatchRequest> requests,
    std::span<const SamplingBackend::BatchRequest> hints) {
  std::vector<stats::Welford> results(requests.size());
  std::vector<BatchKey> needed;
  std::vector<std::size_t> live;  // indices with count > 0
  needed.reserve(requests.size());
  live.reserve(requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& r = requests[i];
    if (r.count < 0) throw std::invalid_argument("EvalScheduler: negative count");
    if (r.count == 0) continue;  // nothing to compute; empty accumulator
    const BatchKey key{r.vertexId, r.startIndex, r.count};
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.speculative) {
      // Speculation hit: the batch is already in flight (or done); claim it.
      it->second.speculative = false;
      if (const auto pos = std::find(staged_.begin(), staged_.end(), key);
          pos != staged_.end()) {
        staged_.erase(pos);
      }
      ++hits_;
      if (telHits_ != nullptr) telHits_->add(1);
    } else if (it == entries_.end()) {
      Entry entry;
      entry.chunksTotal = evalChunkCount(r.count);
      entry.chunks.resize(static_cast<std::size_t>(entry.chunksTotal));
      entry.sequence = nextSequence_++;
      entries_.emplace(key, std::move(entry));
      submitSharded(r, key);
      ++misses_;
      if (telMisses_ != nullptr) telMisses_->add(1);
    }
    // else: duplicate demand for the same key in this call shares the entry.
    needed.push_back(key);
    live.push_back(i);
  }
  if (telHitRate_ != nullptr && hits_ + misses_ > 0) {
    telHitRate_->set(static_cast<double>(hits_) /
                     static_cast<double>(hits_ + misses_));
  }

  // Launch the next round's predicted batches before blocking, so workers
  // have something to chew on while we wait, merge, and decide.
  if (options_.speculate) {
    const auto cap = static_cast<std::size_t>(resolvedOutstandingCap());
    for (const auto& h : hints) {
      if (h.count <= 0) continue;
      const BatchKey key{h.vertexId, h.startIndex, h.count};
      if (entries_.contains(key)) continue;  // already demanded or staged
      // Hard cap: count the shards this hint would submit, not just the
      // tickets already in flight, so the bound cannot be overshot.
      const auto hintTickets = static_cast<std::size_t>(plannedShards(h.count));
      if (ticketRoute_.size() + hintTickets > cap) {
        ++skipped_;
        continue;
      }
      Entry entry;
      entry.chunksTotal = evalChunkCount(h.count);
      entry.chunks.resize(static_cast<std::size_t>(entry.chunksTotal));
      entry.speculative = true;
      entry.sequence = nextSequence_++;
      entries_.emplace(key, std::move(entry));
      staged_.push_back(key);
      submitSharded(h, key);
    }
    enforceStagingCap();
  }

  collect(needed);

  for (std::size_t j = 0; j < live.size(); ++j) {
    const Entry& entry = entries_.at(needed[j]);
    results[live[j]] = foldEvalChunks(entry.chunks);
  }
  // Consume the demanded entries and retire staged batches they supersede.
  for (const BatchKey& key : needed) {
    if (entries_.erase(key) > 0) {
      evictSuperseded(key.vertexId,
                      key.startIndex + static_cast<std::uint64_t>(key.count));
    }
  }
  return results;
}

}  // namespace sfopt::core
