#include "service/service_worker.hpp"

#include <utility>

#include "mw/sampling_service.hpp"

namespace sfopt::service {

ServiceWorker::ServiceWorker(net::Transport& comm, mw::Rank rank)
    : mw::MWWorker(comm, rank) {}

mw::VertexServer& ServiceWorker::serverFor(std::uint64_t jobId, const ObjectiveSpec& spec) {
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->jobId != jobId) continue;
    cache_.splice(cache_.begin(), cache_, it);
    return *cache_.front().server;
  }
  ++cacheMisses_;
  JobServer entry;
  entry.jobId = jobId;
  entry.objective = std::make_unique<noise::NoisyFunction>(spec.makeObjective());
  entry.server = std::make_unique<mw::VertexServer>(*entry.objective, spec.clients);
  cache_.push_front(std::move(entry));
  if (cache_.size() > kCachedJobs) cache_.pop_back();
  return *cache_.front().server;
}

void ServiceWorker::executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) {
  const std::uint64_t jobId = in.unpackUint64();
  const ObjectiveSpec spec = ObjectiveSpec::unpack(in);
  mw::VertexServer& server = serverFor(jobId, spec);
  mw::SamplingTask task;
  task.unpackInput(in);
  const core::SamplingBackend::BatchRequest req{task.x(), task.vertexId(),
                                                task.startIndex(), task.count()};
  task.setChunks(server.runBatchChunks(req));
  task.packResult(out);
}

}  // namespace sfopt::service
