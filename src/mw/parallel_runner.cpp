#include "mw/parallel_runner.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mw/comm.hpp"
#include "mw/mw_driver.hpp"
#include "mw/sampling_service.hpp"

namespace sfopt::mw {

core::OptimizationResult runAlgorithm(const noise::StochasticObjective& objective,
                                      std::span<const core::Point> initial,
                                      const AlgorithmOptions& options) {
  return std::visit(
      [&](const auto& o) {
        using T = std::decay_t<decltype(o)>;
        if constexpr (std::is_same_v<T, core::DetOptions>) {
          return core::runDeterministic(objective, initial, o);
        } else if constexpr (std::is_same_v<T, core::MaxNoiseOptions>) {
          return core::runMaxNoise(objective, initial, o);
        } else if constexpr (std::is_same_v<T, core::AndersonOptions>) {
          return core::runAnderson(objective, initial, o);
        } else {
          return core::runPointToPoint(objective, initial, o);
        }
      },
      options);
}

MWRunResult runSimplexOverTransport(const noise::StochasticObjective& objective,
                                    std::span<const core::Point> initial,
                                    const AlgorithmOptions& options, net::Transport& comm,
                                    const MWRunConfig& config) {
  if (config.clientsPerWorker < 1) {
    throw std::invalid_argument("runSimplexOverTransport: clientsPerWorker must be >= 1");
  }
  MWRunResult out;
  {
    MWDriver driver(comm);
    driver.setTelemetry(config.telemetry);
    driver.setRecvTimeout(config.recvTimeoutSeconds);
    MWSamplingBackend backend(driver);
    AlgorithmOptions withBackend = options;
    std::visit([&](auto& o) { o.common.sampling.backend = &backend; }, withBackend);
    const auto t0 = std::chrono::steady_clock::now();
    out.optimization = runAlgorithm(objective, initial, withBackend);
    const auto t1 = std::chrono::steady_clock::now();
    out.masterWallSeconds = std::chrono::duration<double>(t1 - t0).count();
    driver.shutdown();
    out.tasksCompleted = driver.tasksCompleted();
    out.tasksRequeued = driver.tasksRequeued();
  }
  out.allocation =
      ProcessorAllocation{static_cast<std::int64_t>(objective.dimension()),
                          config.clientsPerWorker};
  out.messagesSent = comm.messagesSent();
  out.bytesSent = comm.bytesSent();
  return out;
}

MWRunResult runSimplexOverMW(const noise::StochasticObjective& objective,
                             std::span<const core::Point> initial,
                             const AlgorithmOptions& options, const MWRunConfig& config) {
  const auto d = static_cast<std::int64_t>(objective.dimension());
  const int workers =
      config.workers > 0 ? config.workers : static_cast<int>(d) + 3;
  if (config.clientsPerWorker < 1) {
    throw std::invalid_argument("runSimplexOverMW: clientsPerWorker must be >= 1");
  }

  CommWorld comm(workers + 1);
  std::vector<std::unique_ptr<SamplingWorker>> workerObjs;
  workerObjs.reserve(static_cast<std::size_t>(workers));
  std::vector<std::thread> workerThreads;
  workerThreads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workerObjs.push_back(
        std::make_unique<SamplingWorker>(comm, w + 1, objective, config.clientsPerWorker));
    workerThreads.emplace_back([&, w] { workerObjs[static_cast<std::size_t>(w)]->run(); });
  }

  MWRunResult out = runSimplexOverTransport(objective, initial, options, comm, config);
  for (auto& t : workerThreads) t.join();
  return out;
}

}  // namespace sfopt::mw
