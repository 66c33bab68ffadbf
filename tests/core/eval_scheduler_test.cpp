#include "core/eval_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <vector>

#include "core/sampling_backend.hpp"
#include "telemetry/sink.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace sfopt;
using core::EvalScheduler;
using core::SamplingBackend;

/// Deterministic stand-in for the objective: the value depends only on
/// (vertexId, sampleIndex), like the counter-keyed RNG, so any correct
/// sharding must reproduce the same chunk moments.
double sampleValue(std::uint64_t vertexId, std::uint64_t index) {
  return std::sin(static_cast<double>(vertexId * 1000003ULL + index)) +
         static_cast<double>(index % 7);
}

/// The canonical chunk moments of a batch, computed serially.
std::vector<stats::Welford> chunksFor(std::uint64_t vertexId, std::uint64_t start,
                                      std::int64_t count) {
  std::vector<stats::Welford> chunks;
  std::int64_t remaining = count;
  std::uint64_t index = start;
  while (remaining > 0) {
    const std::int64_t take = std::min(remaining, core::kEvalChunkSamples);
    stats::Welford c;
    for (std::int64_t i = 0; i < take; ++i) {
      c.add(sampleValue(vertexId, index + static_cast<std::uint64_t>(i)));
    }
    chunks.push_back(c);
    index += static_cast<std::uint64_t>(take);
    remaining -= take;
  }
  return chunks;
}

/// Fake evaluation fabric: records every submitted shard, computes its
/// chunks eagerly, and delivers completions newest-first — the worst case
/// for any merge that depends on completion order.
class FakeAsyncBackend final : public SamplingBackend {
 public:
  explicit FakeAsyncBackend(int parallelism) : parallelism_(parallelism) {}

  struct Recorded {
    std::uint64_t vertexId;
    std::uint64_t startIndex;
    std::int64_t count;
  };

  std::uint64_t submit(const BatchRequest& request) override {
    const std::uint64_t ticket = nextTicket_++;
    recorded.push_back({request.vertexId, request.startIndex, request.count});
    pending_.push_back({ticket, chunksFor(request.vertexId, request.startIndex, request.count)});
    return ticket;
  }

  /// The scheduler waits without a bound, so a poll that can deliver
  /// nothing would block a real fabric forever: it throws instead, and a
  /// mis-scripted test fails rather than spins.
  std::vector<Completion> poll(double timeoutSeconds) override {
    std::vector<Completion> out = take();
    if (out.empty() && std::isinf(timeoutSeconds)) {
      throw std::logic_error("FakeAsyncBackend: unbounded poll with nothing to deliver");
    }
    return out;
  }

  /// What one poll delivers under the scripted order.
  std::vector<Completion> take() {
    std::vector<Completion> out;
    if (holdCompletions) return out;
    while (!forcedOrder.empty() && (perPoll == 0 || out.size() < perPoll)) {
      const std::uint64_t want = forcedOrder.front();
      const auto it = std::find_if(pending_.begin(), pending_.end(),
                                   [&](const Completion& c) { return c.ticket == want; });
      if (it == pending_.end()) break;  // not submitted yet
      forcedOrder.pop_front();
      out.push_back(std::move(*it));
      pending_.erase(it);
    }
    if (!forcedOrder.empty()) return out;
    while (!pending_.empty() && (perPoll == 0 || out.size() < perPoll)) {
      out.push_back(std::move(pending_.back()));
      pending_.pop_back();
    }
    return out;
  }

  [[nodiscard]] int parallelism() const override { return parallelism_; }
  /// The scheduler's caps are 2 x parallelism, read on every call.
  void setParallelism(int parallelism) { parallelism_ = parallelism; }

  std::vector<Recorded> recorded;
  std::size_t perPoll = 0;      ///< completions per poll; 0 = all at once
  bool holdCompletions = false; ///< simulate a silent fabric
  /// When non-empty, deliver exactly these tickets in this order (ahead
  /// of the default newest-first drain) — for staleness interleavings.
  std::deque<std::uint64_t> forcedOrder;

 private:
  int parallelism_;
  std::uint64_t nextTicket_ = 1;
  std::vector<Completion> pending_;
};

void expectBitwiseEqual(const stats::Welford& got, const stats::Welford& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.mean(), want.mean());
  EXPECT_EQ(got.sumSquaredDeviations(), want.sumSquaredDeviations());
}

TEST(EvalScheduler, UnshardedBatchIsOneTicketAndMatchesSerialFold) {
  FakeAsyncBackend backend(4);
  EvalScheduler sched(backend, {});
  const SamplingBackend::BatchRequest req{{}, 7, 128, 200};
  const auto results = sched.evaluate({&req, 1});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(backend.recorded.size(), 1u);
  EXPECT_EQ(backend.recorded[0].startIndex, 128u);
  EXPECT_EQ(backend.recorded[0].count, 200);
  expectBitwiseEqual(results[0], core::foldEvalChunks(chunksFor(7, 128, 200)));
  EXPECT_EQ(sched.outstandingTickets(), 0u);
}

TEST(EvalScheduler, ShardsAreChunkAlignedAndCoverTheBatch) {
  FakeAsyncBackend backend(4);
  EvalScheduler sched(backend, {.shardMinSamples = 64});
  const SamplingBackend::BatchRequest req{{}, 3, 64, 640};  // 10 chunks
  const auto results = sched.evaluate({&req, 1});
  ASSERT_EQ(backend.recorded.size(), 4u);  // min(parallelism, chunks, by-threshold)
  std::uint64_t next = 64;
  std::int64_t total = 0;
  for (const auto& shard : backend.recorded) {
    EXPECT_EQ(shard.vertexId, 3u);
    EXPECT_EQ(shard.startIndex, next);  // contiguous
    EXPECT_EQ((shard.startIndex - 64) % core::kEvalChunkSamples, 0u);  // chunk-aligned
    next += static_cast<std::uint64_t>(shard.count);
    total += shard.count;
  }
  EXPECT_EQ(total, 640);
  expectBitwiseEqual(results[0], core::foldEvalChunks(chunksFor(3, 64, 640)));
}

TEST(EvalScheduler, ShardedResultBitwiseInvariantToCompletionOrder) {
  // Reverse delivery, one completion per poll: the fold must still come
  // out bitwise identical to the serial chunk fold.
  FakeAsyncBackend backend(8);
  backend.perPoll = 1;
  EvalScheduler sched(backend, {.shardMinSamples = 64});
  const SamplingBackend::BatchRequest req{{}, 11, 0, 1000};
  const auto results = sched.evaluate({&req, 1});
  EXPECT_GT(backend.recorded.size(), 1u);
  expectBitwiseEqual(results[0], core::foldEvalChunks(chunksFor(11, 0, 1000)));
}

TEST(EvalScheduler, BatchAtThresholdIsNotSharded) {
  FakeAsyncBackend backend(4);
  EvalScheduler sched(backend, {.shardMinSamples = 256});
  const SamplingBackend::BatchRequest req{{}, 1, 0, 256};
  (void)sched.evaluate({&req, 1});
  EXPECT_EQ(backend.recorded.size(), 1u);
}

TEST(EvalScheduler, ZeroCountRequestSkipsTheBackend) {
  FakeAsyncBackend backend(2);
  EvalScheduler sched(backend, {});
  const SamplingBackend::BatchRequest reqs[] = {{{}, 1, 0, 0}, {{}, 2, 0, 64}};
  const auto results = sched.evaluate(reqs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].count(), 0);
  EXPECT_EQ(results[1].count(), 64);
  EXPECT_EQ(backend.recorded.size(), 1u);  // only the real batch went out
}

TEST(EvalScheduler, NegativeCountThrows) {
  FakeAsyncBackend backend(2);
  EvalScheduler sched(backend, {});
  const SamplingBackend::BatchRequest req{{}, 1, 0, -5};
  EXPECT_THROW((void)sched.evaluate({&req, 1}), std::invalid_argument);
}

TEST(EvalScheduler, SpeculationHitReusesStagedBatch) {
  FakeAsyncBackend backend(4);
  EvalScheduler sched(backend, {.speculate = true});
  const SamplingBackend::BatchRequest demand{{}, 1, 0, 100};
  const SamplingBackend::BatchRequest hint{{}, 2, 50, 100};
  (void)sched.evaluate({&demand, 1}, {&hint, 1});
  const std::size_t submitted = backend.recorded.size();
  EXPECT_EQ(submitted, 2u);  // demand + speculative hint
  EXPECT_EQ(sched.stagedBatches(), 1u);

  const auto results = sched.evaluate({&hint, 1});
  EXPECT_EQ(backend.recorded.size(), submitted);  // no resubmit: staged hit
  EXPECT_EQ(sched.speculationHits(), 1u);
  EXPECT_EQ(sched.speculationMisses(), 1u);
  EXPECT_EQ(sched.stagedBatches(), 0u);
  expectBitwiseEqual(results[0], core::foldEvalChunks(chunksFor(2, 50, 100)));
}

TEST(EvalScheduler, SpeculationSkippedAtOutstandingCap) {
  FakeAsyncBackend backend(1);  // cap 2
  EvalScheduler sched(backend, {.speculate = true});
  const SamplingBackend::BatchRequest demands[] = {{{}, 1, 0, 64}, {{}, 4, 0, 64}};
  const SamplingBackend::BatchRequest hint{{}, 2, 0, 64};
  (void)sched.evaluate(demands, {&hint, 1});
  // The two demand tickets already fill the cap, so the hint never launches.
  EXPECT_EQ(backend.recorded.size(), 2u);
  EXPECT_EQ(sched.speculationSkipped(), 1u);
  EXPECT_EQ(sched.stagedBatches(), 0u);
}

TEST(EvalScheduler, StagingCapEvictsOldestWithoutCorruptingResults) {
  FakeAsyncBackend backend(2);  // cap 4
  EvalScheduler sched(backend, {.speculate = true});
  const SamplingBackend::BatchRequest demand{{}, 1, 0, 64};
  const SamplingBackend::BatchRequest hintB{{}, 2, 0, 64};
  const SamplingBackend::BatchRequest hintC{{}, 3, 0, 64};
  const SamplingBackend::BatchRequest hintD{{}, 4, 0, 64};
  const SamplingBackend::BatchRequest hints[] = {hintB, hintC, hintD};
  (void)sched.evaluate({&demand, 1}, hints);
  EXPECT_EQ(sched.stagedBatches(), 3u);

  // The cap shrinks to 2 with the fleet: the next call evicts the oldest
  // staged batch (B).
  backend.setParallelism(1);
  const SamplingBackend::BatchRequest other{{}, 5, 0, 64};
  (void)sched.evaluate({&other, 1});
  EXPECT_EQ(sched.stagedBatches(), 2u);
  EXPECT_EQ(sched.stagedEvicted(), 1u);

  // B is a miss (resubmitted) and still bitwise correct; C is a hit.
  const auto b = sched.evaluate({&hintB, 1});
  expectBitwiseEqual(b[0], core::foldEvalChunks(chunksFor(2, 0, 64)));
  const std::uint64_t hitsBefore = sched.speculationHits();
  const auto c = sched.evaluate({&hintC, 1});
  EXPECT_EQ(sched.speculationHits(), hitsBefore + 1);
  expectBitwiseEqual(c[0], core::foldEvalChunks(chunksFor(3, 0, 64)));
}

TEST(EvalScheduler, SupersededSpeculationIsEvictedWhenVertexMovesPast) {
  FakeAsyncBackend backend(4);
  EvalScheduler sched(backend, {.speculate = true});
  const SamplingBackend::BatchRequest demand{{}, 1, 0, 64};
  // Hint guesses the next refinement of vertex 5 wrong (too small).
  const SamplingBackend::BatchRequest hint{{}, 5, 100, 64};
  (void)sched.evaluate({&demand, 1}, {&hint, 1});
  EXPECT_EQ(sched.stagedBatches(), 1u);

  // The actual refinement consumes past the staged start index, so the
  // stale guess can never match again and is dropped.
  const SamplingBackend::BatchRequest actual{{}, 5, 100, 128};
  const auto results = sched.evaluate({&actual, 1});
  EXPECT_EQ(sched.stagedBatches(), 0u);
  EXPECT_EQ(sched.stagedEvicted(), 1u);
  EXPECT_EQ(sched.speculationHits(), 0u);
  expectBitwiseEqual(results[0], core::foldEvalChunks(chunksFor(5, 100, 128)));
}

TEST(EvalScheduler, StaleTicketFromEvictedEntryCannotCorruptRecreatedEntry) {
  // An entry evicted by the staging cap leaves its tickets in flight; a
  // later demand for the same key builds a fresh entry with fresh
  // tickets.  If a stale completion were allowed to fill the fresh entry,
  // the fill counter could reach the total while another chunk slot is
  // still an empty Welford — silently losing samples.  The generation
  // guard must drop the stale completion instead.
  FakeAsyncBackend backend(2);  // cap 4; K shards in two
  backend.holdCompletions = true;
  EvalScheduler sched(backend, {.shardMinSamples = 64, .speculate = true});
  const SamplingBackend::BatchRequest hintK{{}, 9, 0, 128};  // 2 shards: tickets 1, 2
  (void)sched.evaluate({}, {&hintK, 1});
  ASSERT_EQ(backend.recorded.size(), 2u);
  const SamplingBackend::BatchRequest hintB{{}, 10, 0, 64};  // ticket 3
  const SamplingBackend::BatchRequest hintC{{}, 12, 0, 64};  // ticket 4
  const SamplingBackend::BatchRequest later[] = {hintB, hintC};
  (void)sched.evaluate({}, later);
  ASSERT_EQ(backend.recorded.size(), 4u);
  // Shrinking the cap to 2 evicts K, the oldest of three staged batches.
  backend.setParallelism(1);
  (void)sched.evaluate({}, {});
  EXPECT_EQ(sched.stagedEvicted(), 1u);

  // Demand K again at the old width (tickets 5, 6) and deliver: stale
  // chunk-0 (ticket 1), fresh chunk-0 (ticket 5), fresh chunk-1 (ticket
  // 6) — the interleaving where a counter-only fill would declare the
  // entry complete after two chunk-0 fills with chunk 1 never written.
  backend.setParallelism(2);
  backend.holdCompletions = false;
  backend.perPoll = 1;
  backend.forcedOrder = {1, 5, 6};
  const auto results = sched.evaluate({&hintK, 1});
  expectBitwiseEqual(results[0], core::foldEvalChunks(chunksFor(9, 0, 128)));

  // The leftover stale ticket (2) and the unconsumed hints (3, 4) drain
  // harmlessly on a later call: no entry double-fill, nothing outstanding.
  backend.perPoll = 0;
  const SamplingBackend::BatchRequest next{{}, 11, 0, 64};
  const auto r2 = sched.evaluate({&next, 1});
  expectBitwiseEqual(r2[0], core::foldEvalChunks(chunksFor(11, 0, 64)));
  EXPECT_EQ(sched.outstandingTickets(), 0u);
}

TEST(EvalScheduler, SpeculativeHintCountsItsShardsAgainstTheCap) {
  // The cap bounds tickets, and one hint can submit several shards: a
  // hint whose shard count would push in-flight tickets past the cap is
  // skipped entirely, while a smaller hint that fits still launches.
  FakeAsyncBackend backend(2);  // cap 4
  EvalScheduler sched(backend, {.shardMinSamples = 64, .speculate = true});
  const SamplingBackend::BatchRequest demands[] = {
      {{}, 1, 0, 640},  // 2 shards
      {{}, 4, 0, 64}};  // 1 shard: 3 tickets in flight
  const SamplingBackend::BatchRequest big{{}, 2, 0, 640};  // 2 shards: 3 + 2 > 4
  const SamplingBackend::BatchRequest small{{}, 3, 0, 64};  // 1 shard: 3 + 1 <= 4
  const SamplingBackend::BatchRequest hints[] = {big, small};
  (void)sched.evaluate(demands, hints);
  EXPECT_EQ(sched.speculationSkipped(), 1u);
  EXPECT_EQ(backend.recorded.size(), 4u);  // the demands' 3 shards + the small hint
  EXPECT_EQ(sched.stagedBatches(), 1u);
}

TEST(EvalScheduler, RegistersEvalMetrics) {
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  FakeAsyncBackend backend(4);
  EvalScheduler::Options opts;
  opts.shardMinSamples = 64;
  opts.speculate = true;
  opts.telemetry = &spine;
  EvalScheduler sched(backend, opts);

  const SamplingBackend::BatchRequest demand{{}, 1, 0, 640};
  const SamplingBackend::BatchRequest hint{{}, 2, 0, 64};
  (void)sched.evaluate({&demand, 1}, {&hint, 1});
  (void)sched.evaluate({&hint, 1});

  bool sawShards = false;
  for (const auto& snap : spine.metrics().snapshot()) {
    if (snap.name == "eval.shards_per_batch") {
      sawShards = true;
      EXPECT_GE(snap.count, 2);  // demand (4 shards) + hint (1 shard)
    }
  }
  EXPECT_TRUE(sawShards);
  EXPECT_EQ(spine.metrics().counter("eval.speculation_hits").value(), 1);
  EXPECT_EQ(spine.metrics().counter("eval.speculation_misses").value(), 1);
  EXPECT_DOUBLE_EQ(spine.metrics().gauge("eval.speculation_hit_rate").value(), 0.5);
}

TEST(EvalScheduler, HitRateGaugeCoversEverySchedulerOnTheSpine) {
  // A daemon puts every job's scheduler on one spine.  The gauge is the
  // rate over all speculating schedulers, and a plain one counts nothing.
  telemetry::NoopSink sink;
  telemetry::Telemetry spine(sink);
  FakeAsyncBackend specBackend(4);
  FakeAsyncBackend plainBackend(4);
  EvalScheduler speculating(specBackend, {.speculate = true, .telemetry = &spine});
  EvalScheduler plain(plainBackend, {.telemetry = &spine});

  const SamplingBackend::BatchRequest demand{{}, 1, 0, 64};
  const SamplingBackend::BatchRequest hint{{}, 2, 0, 64};
  (void)speculating.evaluate({&demand, 1}, {&hint, 1});  // miss
  (void)speculating.evaluate({&hint, 1});                // hit
  for (std::uint64_t v = 10; v < 14; ++v) {
    const SamplingBackend::BatchRequest r{{}, v, 0, 64};
    (void)plain.evaluate({&r, 1});
  }

  EXPECT_EQ(plain.speculationMisses(), 0u);
  EXPECT_EQ(spine.metrics().counter("eval.speculation_hits").value(), 1);
  EXPECT_EQ(spine.metrics().counter("eval.speculation_misses").value(), 1);
  EXPECT_DOUBLE_EQ(spine.metrics().gauge("eval.speculation_hit_rate").value(), 0.5);
}

TEST(EvalScheduler, RejectsNegativeOptions) {
  FakeAsyncBackend backend(2);
  EXPECT_THROW(EvalScheduler(backend, {.shardMinSamples = -1}), std::invalid_argument);
}

}  // namespace
