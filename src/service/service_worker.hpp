#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>

#include "mw/mw_worker.hpp"
#include "mw/vertex_server.hpp"
#include "noise/noisy_function.hpp"
#include "service/job.hpp"

namespace sfopt::service {

/// Worker-side executor for the multi-tenant service: every task is
/// self-describing (job id + ObjectiveSpec + batch), so one worker process
/// serves any number of concurrent jobs with no per-job handshake.  An LRU
/// cache keeps one VertexServer (and its objective) alive for each of the
/// kCachedJobs most recently seen jobs; sampling stays bitwise
/// reproducible regardless of cache hits because the noise RNG is
/// counter-keyed, not stateful.  The receive loop samples as the server's
/// client 0, so at the default Ns = 1 a cache miss costs only a
/// NoisyFunction build: the server starts helper threads only for Ns > 1.
class ServiceWorker : public mw::MWWorker {
 public:
  ServiceWorker(net::Transport& comm, mw::Rank rank);

  [[nodiscard]] std::uint64_t cacheMisses() const noexcept { return cacheMisses_; }

 protected:
  void executeTask(mw::MessageBuffer& in, mw::MessageBuffer& out) override;

 private:
  struct JobServer {
    std::uint64_t jobId = 0;
    std::unique_ptr<noise::NoisyFunction> objective;  ///< outlives the server
    std::unique_ptr<mw::VertexServer> server;
  };

  [[nodiscard]] mw::VertexServer& serverFor(std::uint64_t jobId, const ObjectiveSpec& spec);

  static constexpr std::size_t kCachedJobs = 4;  ///< LRU capacity

  std::list<JobServer> cache_;  ///< front = most recently used
  std::uint64_t cacheMisses_ = 0;
};

}  // namespace sfopt::service
