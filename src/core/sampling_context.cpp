#include "core/sampling_context.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "core/eval_scheduler.hpp"

namespace sfopt::core {

namespace {

/// Draw `take` more samples at v inline and absorb them in index order:
/// the vertex sees the sequential Welford::add stream.
void sampleInline(const noise::StochasticObjective& objective, Vertex& v, std::int64_t take) {
  sampleChunks(objective, v.point(), v.id(), static_cast<std::uint64_t>(v.sampleCount()), take,
               [&v](std::span<const double> chunk) {
                 for (const double y : chunk) v.absorb(y);
               });
}

}  // namespace

SamplingContext::SamplingContext(const noise::StochasticObjective& objective, Options options)
    : objective_(objective), options_(options), nextVertexId_(options.firstVertexId) {
  if (options_.maxSamplesPerVertex < 1) {
    throw std::invalid_argument("SamplingContext: maxSamplesPerVertex must be >= 1");
  }
  if (options_.shardMinSamples < 0) {
    throw std::invalid_argument("SamplingContext: shardMinSamples must be >= 0");
  }
  // The pipeline engages only when the backend can run asynchronously and
  // the caller asked for sharding or speculation; the plain blocking path
  // stays byte-for-byte what it always was otherwise.
  if (options_.backend != nullptr &&
      (options_.shardMinSamples > 0 || options_.speculate)) {
    if (AsyncSamplingBackend* async = options_.backend->async()) {
      EvalScheduler::Options sched;
      sched.shardMinSamples = options_.shardMinSamples;
      sched.speculate = options_.speculate;
      sched.maxOutstandingShards = options_.maxOutstandingShards;
      sched.telemetry = options_.telemetry;
      scheduler_ = std::make_unique<EvalScheduler>(*async, sched);
    }
  }
}

SamplingContext::~SamplingContext() = default;

std::unique_ptr<Vertex> SamplingContext::createVertex(Point x, std::int64_t initialSamples) {
  if (x.size() != objective_.dimension()) {
    throw std::invalid_argument("SamplingContext::createVertex: dimension mismatch");
  }
  auto v = std::make_unique<Vertex>(std::move(x), nextVertexId_++);
  refine(*v, initialSamples);
  return v;
}

std::int64_t SamplingContext::refine(Vertex& v, std::int64_t extra) {
  if (extra < 0) throw std::invalid_argument("SamplingContext::refine: negative count");
  const std::int64_t room = options_.maxSamplesPerVertex - v.sampleCount();
  const std::int64_t take = std::min(extra, std::max<std::int64_t>(room, 0));
  if (take == 0) return 0;
  const SamplingBackend::BatchRequest req{v.point(), v.id(),
                                          static_cast<std::uint64_t>(v.sampleCount()), take};
  if (scheduler_ != nullptr) {
    v.absorb(scheduler_->evaluate({&req, 1}).front());
  } else if (options_.backend != nullptr) {
    v.absorb(options_.backend->sampleBatch(req));
  } else {
    sampleInline(objective_, v, take);
  }
  totalSamples_ += take;
  return take;
}

std::vector<SamplingContext::CoalescedRequest> SamplingContext::coalesce(
    std::span<const RefineRequest> requests) const {
  // One entry per vertex, first-occurrence order, samples summed.  A
  // duplicate must not become two batches: both would start at the same
  // sampleCount and reuse noise-stream indices (duplicate SampleKeys).
  std::vector<CoalescedRequest> out;
  out.reserve(requests.size());
  std::unordered_map<const Vertex*, std::size_t> index;
  for (const RefineRequest& r : requests) {
    if (r.vertex == nullptr) throw std::invalid_argument("coSample: null vertex");
    if (r.samples < 0) throw std::invalid_argument("coSample: negative count");
    const auto [it, fresh] = index.emplace(r.vertex, out.size());
    if (fresh) {
      out.push_back(CoalescedRequest{r.vertex, r.samples});
    } else {
      out[it->second].take += r.samples;
    }
  }
  for (CoalescedRequest& c : out) {
    const std::int64_t room = options_.maxSamplesPerVertex - c.vertex->sampleCount();
    c.take = std::min(c.take, std::max<std::int64_t>(room, 0));
  }
  return out;
}

void SamplingContext::coSample(std::span<const RefineRequest> requests) {
  coSample(requests, std::span<const RefineRequest>{});
}

void SamplingContext::coSample(std::span<const RefineRequest> requests,
                               std::span<const RefineRequest> nextRoundHint) {
  const std::vector<CoalescedRequest> coal = coalesce(requests);
  std::int64_t maxTaken = 0;

  if (options_.backend != nullptr) {
    // Dispatch the whole batch so the backend can run it concurrently
    // (this models the d+3 workers sampling their vertices at once).
    // Capped vertices (take == 0) never leave the master: a zero-count
    // batch would waste a wire round trip to compute nothing.
    std::vector<SamplingBackend::BatchRequest> batch;
    std::vector<std::size_t> batchSlot;  // index into coal per batch entry
    batch.reserve(coal.size());
    batchSlot.reserve(coal.size());
    for (std::size_t i = 0; i < coal.size(); ++i) {
      if (coal[i].take == 0) continue;
      const Vertex& v = *coal[i].vertex;
      batch.push_back({v.point(), v.id(), static_cast<std::uint64_t>(v.sampleCount()),
                       coal[i].take});
      batchSlot.push_back(i);
    }
    std::vector<stats::Welford> results;
    if (scheduler_ != nullptr) {
      // Predict each hinted vertex's future start index: its current count
      // plus whatever this round is about to take at it.
      std::unordered_map<const Vertex*, std::int64_t> currentTake;
      for (const CoalescedRequest& c : coal) currentTake.emplace(c.vertex, c.take);
      std::vector<SamplingBackend::BatchRequest> hintBatch;
      std::unordered_map<const Vertex*, std::int64_t> hintSum;
      std::vector<Vertex*> hintOrder;
      for (const RefineRequest& h : nextRoundHint) {
        if (h.vertex == nullptr || h.samples <= 0) continue;
        const auto [it, fresh] = hintSum.emplace(h.vertex, h.samples);
        if (fresh) {
          hintOrder.push_back(h.vertex);
        } else {
          it->second += h.samples;
        }
      }
      hintBatch.reserve(hintOrder.size());
      for (Vertex* v : hintOrder) {
        const auto t = currentTake.find(v);
        const std::int64_t future =
            v->sampleCount() + (t != currentTake.end() ? t->second : 0);
        const std::int64_t room = options_.maxSamplesPerVertex - future;
        const std::int64_t take =
            std::min(hintSum.at(v), std::max<std::int64_t>(room, 0));
        if (take == 0) continue;
        hintBatch.push_back({v->point(), v->id(), static_cast<std::uint64_t>(future), take});
      }
      results = scheduler_->evaluate(batch, hintBatch);
    } else {
      results = options_.backend->sampleBatches(batch);
    }
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const std::size_t i = batchSlot[b];
      coal[i].vertex->absorb(results[b]);
      totalSamples_ += coal[i].take;
      maxTaken = std::max(maxTaken, coal[i].take);
    }
  } else {
    for (const CoalescedRequest& c : coal) {
      sampleInline(objective_, *c.vertex, c.take);
      totalSamples_ += c.take;
      maxTaken = std::max(maxTaken, c.take);
    }
  }
  chargeTime(maxTaken);
}

void SamplingContext::coSample(std::initializer_list<RefineRequest> requests) {
  coSample(std::span<const RefineRequest>(requests.begin(), requests.size()));
}

void SamplingContext::chargeTime(std::int64_t samples) {
  clock_.advance(static_cast<double>(samples) * objective_.sampleDuration());
}

void SamplingContext::restoreAccounting(double clockNow, std::int64_t totalSamples,
                                        std::uint64_t nextVertexId) {
  clock_.reset();
  clock_.advance(clockNow);
  totalSamples_ = totalSamples;
  nextVertexId_ = nextVertexId;
}

double SamplingContext::sigma(const Vertex& v) const {
  if (options_.sigmaMode == SigmaMode::Exact) {
    if (auto s0 = objective_.noiseScale(v.point())) {
      return v.exactSigma(*s0, objective_.sampleDuration());
    }
  }
  return v.estimatedSigma();
}

std::optional<double> SamplingContext::trueValue(const Vertex& v) const {
  return objective_.trueValue(v.point());
}

}  // namespace sfopt::core
