#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/sink.hpp"

namespace sfopt::telemetry {

/// Offline analysis of distributed trace files: merge master + worker
/// JSONL event streams, align worker clocks to the master's using the
/// heartbeat-derived `fleet.clock` offset events, reassemble each shard's
/// span tree by trace id, and report critical-path / utilization /
/// straggler statistics.  Backs `sfopt trace`.

/// Trace ids are namespaced: the top bits above this shift carry the job
/// id on captures taken from the multi-tenant service (the MW driver ORs
/// (jobId << 40) over every task id), and 0 for a classic single-run
/// capture.  Analysis groups span trees per namespace so a capture holding
/// many interleaved jobs still verifies one tree per shard and reports one
/// row per job.
inline constexpr int kTraceNamespaceShift = 40;

/// One span after clock correction, reduced to the fields the analysis
/// needs.
struct TraceSpan {
  std::string name;
  double start = 0.0;     ///< master-clock seconds (workers corrected)
  double duration = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  int rank = -1;          ///< "rank" field when present; -1 = master-side
  std::string outcome;    ///< "outcome" field when present
  std::string reason;     ///< "reason" field when present
};

/// The reassembled span tree for one shard (one trace id).
struct ShardTrace {
  std::uint64_t traceId = 0;
  std::vector<TraceSpan> spans;
  double queueSeconds = 0.0;    ///< sum of shard.queue durations
  double wireSeconds = 0.0;     ///< remote duration not covered by execute
  double executeSeconds = 0.0;  ///< matched worker.execute durations
  double foldSeconds = 0.0;     ///< ok-remote end to fold/discard marker
  double totalSeconds = 0.0;    ///< shard.lifecycle root duration
  int dispatches = 0;           ///< shard.remote spans (attempts)
  int requeues = 0;             ///< failed remote attempts (outcome error / lost)
  bool folded = false;
  bool discarded = false;
  bool failed = false;     ///< root ended with outcome=failed
  bool abandoned = false;  ///< root ended with outcome=abandoned (shutdown
                           ///< with the task still queued or in flight)
};

struct WorkerReport {
  int rank = -1;
  std::uint64_t tasks = 0;
  double busySeconds = 0.0;          ///< sum of worker.execute durations
  double utilization = 0.0;          ///< busy / run wall span
  double clockOffsetSeconds = 0.0;   ///< median heartbeat offset applied
  bool offsetKnown = false;
};

/// Aggregate over one trace-id namespace (one service job, or the whole
/// capture when everything lives in namespace 0).
struct TraceNamespaceReport {
  std::uint64_t ns = 0;  ///< trace >> kTraceNamespaceShift (job id; 0 = legacy)
  std::uint64_t traces = 0;
  std::uint64_t folded = 0;
  std::uint64_t discarded = 0;
  std::uint64_t failed = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t requeues = 0;
  std::uint64_t problems = 0;
  bool jobSpanSeen = false;  ///< a service.job root span was captured
  double jobSeconds = 0.0;   ///< its duration (0 until the job ends)
  std::string jobOutcome;    ///< its outcome field, when present
};

struct TraceReport {
  std::uint64_t traces = 0;      ///< distinct shard trace ids seen
  std::uint64_t dispatched = 0;  ///< total dispatch attempts
  std::uint64_t requeues = 0;
  std::uint64_t folded = 0;
  std::uint64_t discarded = 0;
  std::uint64_t failed = 0;
  std::uint64_t abandoned = 0;
  double wallSeconds = 0.0;      ///< run span (earliest start to latest end)
  double queueSeconds = 0.0;
  double wireSeconds = 0.0;
  double executeSeconds = 0.0;
  double foldSeconds = 0.0;
  bool workerSpansSeen = false;  ///< any worker.execute present in input
  std::vector<WorkerReport> workers;        ///< sorted by rank
  std::vector<ShardTrace> stragglers;       ///< slowest traces, desc
  std::vector<std::string> problems;        ///< span-tree integrity failures
  std::vector<TraceNamespaceReport> namespaces;  ///< sorted by ns

  [[nodiscard]] bool ok() const noexcept { return problems.empty(); }

  /// True when the capture holds more than the legacy namespace 0 — i.e.
  /// it came from a multi-tenant service run.
  [[nodiscard]] bool multiJob() const noexcept {
    return namespaces.size() > 1 ||
           (namespaces.size() == 1 && namespaces.front().ns != 0);
  }
};

/// Analyze a merged event stream (concatenate readJsonlEvents() of the
/// master and every worker trace file; order does not matter).  Worker
/// span times are shifted onto the master clock by the per-rank median of
/// the `fleet.clock` offset samples the master recorded from heartbeat
/// echoes.  `topStragglers` bounds the straggler list.
[[nodiscard]] TraceReport analyzeTraceEvents(const std::vector<Event>& events,
                                             int topStragglers = 5);

}  // namespace sfopt::telemetry
