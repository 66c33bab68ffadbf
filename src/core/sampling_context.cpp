#include "core/sampling_context.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "core/eval_scheduler.hpp"

namespace sfopt::core {

SamplingContext::SamplingContext(const noise::StochasticObjective& objective, Options options)
    : objective_(objective), options_(options), nextVertexId_(options.firstVertexId) {
  if (options_.maxSamplesPerVertex < 1) {
    throw std::invalid_argument("SamplingContext: maxSamplesPerVertex must be >= 1");
  }
  if (options_.shardMinSamples < 0) {
    throw std::invalid_argument("SamplingContext: shardMinSamples must be >= 0");
  }
  // Every backend refine goes through the scheduler; with sharding and
  // speculation off it submits one ticket per batch and waits for them.
  if (options_.backend != nullptr) {
    EvalScheduler::Options sched;
    sched.shardMinSamples = options_.shardMinSamples;
    sched.speculate = options_.speculate;
    sched.telemetry = options_.telemetry;
    scheduler_ = std::make_unique<EvalScheduler>(*options_.backend, sched);
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
  v.absorb(evaluate({&req, 1}, {}).front());
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

std::vector<SamplingBackend::BatchRequest> SamplingContext::predictHints(
    std::span<const CoalescedRequest> coal, std::span<const RefineRequest> nextRoundHint) const {
  std::vector<SamplingBackend::BatchRequest> hintBatch;
  if (scheduler_ == nullptr || !options_.speculate || nextRoundHint.empty()) return hintBatch;
  // Predict each hinted vertex's future start index: its current count
  // plus whatever this round is about to take at it.
  std::unordered_map<const Vertex*, std::int64_t> currentTake;
  for (const CoalescedRequest& c : coal) currentTake.emplace(c.vertex, c.take);
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
    const std::int64_t future = v->sampleCount() + (t != currentTake.end() ? t->second : 0);
    const std::int64_t room = options_.maxSamplesPerVertex - future;
    const std::int64_t take = std::min(hintSum.at(v), std::max<std::int64_t>(room, 0));
    if (take == 0) continue;
    hintBatch.push_back({v->point(), v->id(), static_cast<std::uint64_t>(future), take});
  }
  return hintBatch;
}

void SamplingContext::coSample(std::span<const RefineRequest> requests,
                               std::span<const RefineRequest> nextRoundHint) {
  const std::vector<CoalescedRequest> coal = coalesce(requests);
  // One batch for the whole round, so a backend can run it concurrently
  // (this models the d+3 workers sampling their vertices at once).
  // Capped vertices (take == 0) never leave the master: a zero-count
  // batch folds to an empty accumulator.
  std::vector<SamplingBackend::BatchRequest> batch;
  batch.reserve(coal.size());
  for (const CoalescedRequest& c : coal) {
    const Vertex& v = *c.vertex;
    batch.push_back({v.point(), v.id(), static_cast<std::uint64_t>(v.sampleCount()), c.take});
  }
  const std::vector<stats::Welford> results =
      evaluate(batch, predictHints(coal, nextRoundHint));
  for (std::size_t i = 0; i < coal.size(); ++i) coal[i].vertex->absorb(results[i]);
  std::int64_t maxTaken = 0;
  for (const CoalescedRequest& c : coal) {
    totalSamples_ += c.take;
    maxTaken = std::max(maxTaken, c.take);
  }
  chargeTime(maxTaken);
}

std::vector<stats::Welford> SamplingContext::evaluate(
    std::span<const SamplingBackend::BatchRequest> batch,
    std::span<const SamplingBackend::BatchRequest> hints) {
  if (scheduler_ != nullptr) return scheduler_->evaluate(batch, hints);
  std::vector<stats::Welford> results;
  results.reserve(batch.size());
  for (const SamplingBackend::BatchRequest& request : batch) {
    results.push_back(foldEvalChunks(sampleChunks(objective_, request)));
  }
  return results;
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
