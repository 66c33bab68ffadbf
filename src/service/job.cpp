#include "service/job.hpp"

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "mw/vertex_server.hpp"
#include "testfunctions/functions.hpp"

namespace sfopt::service {

namespace {

using FnPtr = double (*)(std::span<const double>);

FnPtr lookupFunction(const std::string& name) {
  if (name == "rosenbrock") return &testfunctions::rosenbrock;
  if (name == "powell") return &testfunctions::powell;
  if (name == "sphere") return &testfunctions::sphere;
  if (name == "rastrigin") return &testfunctions::rastrigin;
  if (name == "quadratic") return &testfunctions::quadraticBowl;
  throw std::runtime_error("unknown objective function '" + name +
                           "' (try rosenbrock, powell, sphere, rastrigin, quadratic)");
}

void packBool(mw::MessageBuffer& buf, bool v) {
  buf.pack(static_cast<std::int64_t>(v ? 1 : 0));
}

bool unpackBool(mw::MessageBuffer& buf) { return buf.unpackInt64() != 0; }

}  // namespace

void ObjectiveSpec::pack(mw::MessageBuffer& buf) const {
  buf.pack(function);
  buf.pack(dim);
  buf.pack(sigma0);
  buf.pack(seed);
  buf.pack(clients);
}

ObjectiveSpec ObjectiveSpec::unpack(mw::MessageBuffer& buf) {
  ObjectiveSpec s;
  s.function = buf.unpackString();
  s.dim = buf.unpackInt64();
  s.sigma0 = buf.unpackDouble();
  s.seed = buf.unpackUint64();
  s.clients = buf.unpackInt64();
  return s;
}

noise::NoisyFunction ObjectiveSpec::makeObjective() const {
  if (dim < 2) throw std::runtime_error("objective dim must be >= 2");
  if (function == "powell" && dim != 4) {
    throw std::runtime_error("powell requires dim 4");
  }
  noise::NoisyFunction::Options o;
  o.sigma0 = sigma0;
  o.seed = seed;
  return noise::NoisyFunction(static_cast<std::size_t>(dim), lookupFunction(function), o);
}

void JobSpec::pack(mw::MessageBuffer& buf) const {
  buf.pack(std::string("job-v2"));
  objective.pack(buf);
  buf.pack(algorithm);
  buf.pack(k);
  buf.pack(k1);
  buf.pack(k2);
  buf.pack(termination.tolerance);
  buf.pack(termination.maxIterations);
  buf.pack(termination.maxSamples);
  buf.pack(termination.maxTime);
  buf.pack(shardMinSamples);
  packBool(buf, speculate);
  buf.pack(priority);
  buf.pack(static_cast<std::int64_t>(initial.size()));
  for (const core::Point& p : initial) buf.pack(std::span<const double>(p));
}

JobSpec JobSpec::unpack(mw::MessageBuffer& buf) {
  const std::string schema = buf.unpackString();
  if (schema != "job-v2") {
    throw std::runtime_error("unsupported job schema '" + schema + "' (this build speaks job-v2)");
  }
  JobSpec s;
  s.objective = ObjectiveSpec::unpack(buf);
  s.algorithm = buf.unpackString();
  s.k = buf.unpackDouble();
  s.k1 = buf.unpackDouble();
  s.k2 = buf.unpackDouble();
  s.termination.tolerance = buf.unpackDouble();
  s.termination.maxIterations = buf.unpackInt64();
  s.termination.maxSamples = buf.unpackInt64();
  s.termination.maxTime = buf.unpackDouble();
  s.shardMinSamples = buf.unpackInt64();
  s.speculate = unpackBool(buf);
  s.priority = buf.unpackInt64();
  const std::int64_t points = buf.unpackInt64();
  if (points < 0 || points > 1'000'000) {
    throw std::runtime_error("job spec: implausible simplex point count");
  }
  s.initial.reserve(static_cast<std::size_t>(points));
  for (std::int64_t i = 0; i < points; ++i) s.initial.push_back(buf.unpackDoubleVector());
  return s;
}

void JobSpec::validate() const {
  (void)lookupFunction(objective.function);
  if (objective.dim < 2) throw std::runtime_error("job spec: dim must be >= 2");
  if (objective.function == "powell" && objective.dim != 4) {
    throw std::runtime_error("job spec: powell requires dim 4");
  }
  if (objective.clients < 1 || objective.clients > mw::kMaxVertexClients) {
    throw std::runtime_error("job spec: clients must be in 1.." +
                             std::to_string(mw::kMaxVertexClients) + ", not " +
                             std::to_string(objective.clients));
  }
  if (!(std::isfinite(objective.sigma0) && objective.sigma0 >= 0.0)) {
    throw std::runtime_error("job spec: sigma0 must be finite and >= 0");
  }
  if (algorithm != "det" && algorithm != "mn" && algorithm != "anderson" &&
      algorithm != "pc" && algorithm != "pcmn") {
    throw std::runtime_error("job spec: unknown algorithm '" + algorithm +
                             "' (det, mn, anderson, pc, pcmn)");
  }
  if (initial.size() != static_cast<std::size_t>(objective.dim) + 1) {
    throw std::runtime_error("job spec: initial simplex needs dim + 1 points");
  }
  for (const core::Point& p : initial) {
    if (p.size() != static_cast<std::size_t>(objective.dim)) {
      throw std::runtime_error("job spec: initial point has wrong dimension");
    }
  }
  if (shardMinSamples < 0) throw std::runtime_error("job spec: shardMinSamples < 0");
  if (priority < 1 || priority > 100) {
    throw std::runtime_error("job spec: priority must be in 1..100");
  }
}

mw::AlgorithmOptions JobSpec::makeOptions() const {
  mw::AlgorithmOptions options;
  if (algorithm == "det") {
    core::DetOptions o;
    o.common.termination = termination;
    options = o;
  } else if (algorithm == "mn") {
    core::MaxNoiseOptions o;
    o.k = k;
    o.common.termination = termination;
    options = o;
  } else if (algorithm == "anderson") {
    core::AndersonOptions o;
    o.k1 = k1;
    o.k2 = k2;
    o.common.termination = termination;
    options = o;
  } else {
    core::PCOptions o;
    o.k = k;
    o.maxNoiseGate = algorithm == "pcmn";
    o.common.termination = termination;
    options = o;
  }
  std::visit(
      [&](auto& o) {
        o.common.sampling.shardMinSamples = shardMinSamples;
        o.common.sampling.speculate = speculate;
      },
      options);
  return options;
}

std::string_view toString(JobState s) noexcept {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Cancelled: return "cancelled";
    case JobState::Failed: return "failed";
    case JobState::Rejected: return "rejected";
    case JobState::Unknown: return "unknown";
  }
  return "unknown";
}

void JobOutcome::pack(mw::MessageBuffer& buf) const {
  buf.pack(static_cast<std::int64_t>(reason));
  buf.pack(std::span<const double>(best));
  buf.pack(bestEstimate);
  packBool(buf, bestTrue.has_value());
  if (bestTrue) buf.pack(*bestTrue);
  buf.pack(iterations);
  buf.pack(totalSamples);
  buf.pack(elapsedTime);
  buf.pack(counters.reflections);
  buf.pack(counters.expansions);
  buf.pack(counters.contractions);
  buf.pack(counters.collapses);
  buf.pack(counters.gateWaitRounds);
  buf.pack(counters.resampleRounds);
  buf.pack(counters.forcedResolutions);
}

JobOutcome JobOutcome::unpack(mw::MessageBuffer& buf) {
  JobOutcome o;
  o.reason = static_cast<core::TerminationReason>(buf.unpackInt64());
  o.best = buf.unpackDoubleVector();
  o.bestEstimate = buf.unpackDouble();
  if (unpackBool(buf)) o.bestTrue = buf.unpackDouble();
  o.iterations = buf.unpackInt64();
  o.totalSamples = buf.unpackInt64();
  o.elapsedTime = buf.unpackDouble();
  o.counters.reflections = buf.unpackInt64();
  o.counters.expansions = buf.unpackInt64();
  o.counters.contractions = buf.unpackInt64();
  o.counters.collapses = buf.unpackInt64();
  o.counters.gateWaitRounds = buf.unpackInt64();
  o.counters.resampleRounds = buf.unpackInt64();
  o.counters.forcedResolutions = buf.unpackInt64();
  return o;
}

JobOutcome JobOutcome::fromResult(const core::OptimizationResult& res) {
  JobOutcome o;
  o.reason = res.reason;
  o.best = res.best;
  o.bestEstimate = res.bestEstimate;
  o.bestTrue = res.bestTrue;
  o.iterations = res.iterations;
  o.totalSamples = res.totalSamples;
  o.elapsedTime = res.elapsedTime;
  o.counters = res.counters;
  return o;
}

core::OptimizationResult JobOutcome::toResult() const {
  core::OptimizationResult res;
  res.reason = reason;
  res.best = best;
  res.bestEstimate = bestEstimate;
  res.bestTrue = bestTrue;
  res.iterations = iterations;
  res.totalSamples = totalSamples;
  res.elapsedTime = elapsedTime;
  res.counters = counters;
  return res;
}

void StatusReply::pack(mw::MessageBuffer& buf) const {
  buf.pack(jobId);
  buf.pack(static_cast<std::int64_t>(state));
  buf.pack(detail);
  packBool(buf, retryable);
  buf.pack(queued);
  buf.pack(running);
}

StatusReply StatusReply::unpack(mw::MessageBuffer& buf) {
  StatusReply r;
  r.jobId = buf.unpackUint64();
  r.state = static_cast<JobState>(buf.unpackInt64());
  r.detail = buf.unpackString();
  r.retryable = unpackBool(buf);
  r.queued = buf.unpackInt64();
  r.running = buf.unpackInt64();
  return r;
}

void ResultReply::pack(mw::MessageBuffer& buf) const {
  buf.pack(jobId);
  buf.pack(static_cast<std::int64_t>(state));
  buf.pack(detail);
  packBool(buf, outcome.has_value());
  if (outcome) outcome->pack(buf);
}

ResultReply ResultReply::unpack(mw::MessageBuffer& buf) {
  ResultReply r;
  r.jobId = buf.unpackUint64();
  r.state = static_cast<JobState>(buf.unpackInt64());
  r.detail = buf.unpackString();
  if (unpackBool(buf)) r.outcome = JobOutcome::unpack(buf);
  return r;
}

void packServiceTaskInput(mw::MessageBuffer& buf, std::uint64_t jobId,
                          const ObjectiveSpec& spec,
                          const core::SamplingBackend::BatchRequest& request) {
  buf.pack(jobId);
  spec.pack(buf);
  buf.pack(request.x);
  buf.pack(request.vertexId);
  buf.pack(request.startIndex);
  buf.pack(request.count);
}

}  // namespace sfopt::service
