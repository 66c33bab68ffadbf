// Run a 20-dimensional noisy Rosenbrock optimization through the full MW
// master-worker stack: rank 0 drives the simplex, d+3 = 23 workers each
// front a vertex server with Ns clients, and every objective sample
// travels the message-passing wire.  The result is identical to a
// sequential run (noise draws are keyed, not ordered), which this example
// verifies at the end.

#include <cstdio>

#include "core/algorithms.hpp"
#include "core/initial_simplex.hpp"
#include "mw/parallel_runner.hpp"
#include "noise/noisy_function.hpp"
#include "testfunctions/functions.hpp"

int main() {
  using namespace sfopt;
  constexpr std::size_t kDim = 20;

  noise::NoisyFunction::Options noiseOpts;
  noiseOpts.sigma0 = 1.0;
  noise::NoisyFunction objective(
      kDim, [](std::span<const double> x) { return testfunctions::rosenbrock(x); }, noiseOpts);

  noise::RngStream rng(99, 0);
  const auto start = core::randomSimplexPoints(kDim, -2.0, 2.0, rng);

  core::MaxNoiseOptions options;
  options.common.termination.tolerance = 1e-2;
  options.common.termination.maxIterations = 3000;
  options.common.termination.maxSamples = 2'000'000;
  options.common.sampling.maxSamplesPerVertex = 2'000;

  mw::MWRunConfig config;
  config.clientsPerWorker = 2;  // Ns = 2 client simulations per vertex server
  const auto run = mw::runSimplexOverMW(objective, start, options, config);

  std::printf("deployment: %lld workers, %lld servers, %lld clients => %lld cores (Table 3.3 rule)\n",
              static_cast<long long>(run.allocation.workers()),
              static_cast<long long>(run.allocation.servers()),
              static_cast<long long>(run.allocation.clients()),
              static_cast<long long>(run.allocation.totalCores()));
  std::printf("result:     best true value %.4g after %lld steps (%s)\n",
              run.optimization.bestTrue.value_or(run.optimization.bestEstimate),
              static_cast<long long>(run.optimization.iterations),
              toString(run.optimization.reason).data());
  std::printf("traffic:    %llu messages, %llu bytes, %llu tasks; master wall %.2f s\n",
              static_cast<unsigned long long>(run.messagesSent),
              static_cast<unsigned long long>(run.bytesSent),
              static_cast<unsigned long long>(run.tasksCompleted), run.masterWallSeconds);

  // Cross-check against the sequential engine: identical trajectory.
  const auto sequential = core::runMaxNoise(objective, start, options);
  const bool identical = sequential.best == run.optimization.best &&
                         sequential.iterations == run.optimization.iterations;
  std::printf("sequential cross-check: %s\n",
              identical ? "identical trajectory" : "MISMATCH (bug!)");
  return identical ? 0 : 1;
}
