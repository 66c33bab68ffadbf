#include "telemetry/trace_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sfopt::telemetry {

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace

TraceReport analyzeTraceEvents(const std::vector<Event>& events, int topStragglers) {
  TraceReport report;

  // 1. Clock alignment: the master records one `fleet.clock` event per
  // telemetry heartbeat echo, carrying its NTP-style offset estimate
  // theta = t_worker - t_master.  The per-rank median is robust against
  // the occasional RTT spike; t_master = t_worker - theta.
  std::map<int, std::vector<double>> offsetSamples;
  for (const Event& e : events) {
    if (e.type != "clock" || e.name != "fleet.clock") continue;
    const auto rank = e.num("rank");
    const auto offset = e.num("offset_seconds");
    if (!rank || !offset) continue;
    offsetSamples[static_cast<int>(*rank)].push_back(*offset);
  }
  std::map<int, double> offsets;
  for (auto& [rank, samples] : offsetSamples) {
    offsets[rank] = median(std::move(samples));
  }

  // 2. Collect traced spans, shifting worker-side ones onto the master
  // clock.  Only worker.execute spans originate on worker clocks; every
  // other traced span is emitted by the master process.
  std::map<std::uint64_t, ShardTrace> traces;
  std::map<std::uint64_t, TraceNamespaceReport> nsReports;
  double wallMin = std::numeric_limits<double>::infinity();
  double wallMax = -std::numeric_limits<double>::infinity();
  std::map<int, WorkerReport> workers;
  std::set<int> ranksWithExecuteSpans;
  for (const Event& e : events) {
    if (e.type != "span" || e.trace == 0) continue;
    TraceSpan s;
    s.name = e.name;
    s.start = e.time;
    s.duration = std::max(e.duration, 0.0);
    s.id = e.id;
    s.parent = e.parent;
    if (const auto rank = e.num("rank")) s.rank = static_cast<int>(*rank);
    if (const auto outcome = e.str("outcome")) s.outcome = std::string(*outcome);
    if (const auto reason = e.str("reason")) s.reason = std::string(*reason);
    if (s.name == "service.job") {
      // Per-job root emitted by the service daemon with trace = jobId << 40
      // (task ids start at 1, so that id never collides with a shard).  It
      // is a namespace annotation, not part of any shard tree — record it
      // and keep it out of the per-trace verification below.
      TraceNamespaceReport& nsr = nsReports[e.trace >> kTraceNamespaceShift];
      nsr.jobSpanSeen = true;
      nsr.jobSeconds = std::max(nsr.jobSeconds, s.duration);
      if (!s.outcome.empty()) nsr.jobOutcome = s.outcome;
      wallMin = std::min(wallMin, s.start);
      wallMax = std::max(wallMax, s.start + s.duration);
      continue;
    }
    if (s.name == "worker.execute") {
      report.workerSpansSeen = true;
      if (s.rank >= 0) {
        ranksWithExecuteSpans.insert(s.rank);
        if (const auto it = offsets.find(s.rank); it != offsets.end()) {
          s.start -= it->second;
        }
        WorkerReport& w = workers[s.rank];
        w.rank = s.rank;
        ++w.tasks;
        w.busySeconds += s.duration;
      }
    }
    wallMin = std::min(wallMin, s.start);
    wallMax = std::max(wallMax, s.start + s.duration);
    ShardTrace& t = traces[e.trace];
    t.traceId = e.trace;
    t.spans.push_back(std::move(s));
  }
  if (wallMax > wallMin) report.wallSeconds = wallMax - wallMin;

  // 3. Per-trace span-tree assembly and verification.
  const auto problem = [&](std::uint64_t trace, const std::string& what) {
    report.problems.push_back("trace " + std::to_string(trace) + ": " + what);
    ++nsReports[trace >> kTraceNamespaceShift].problems;
  };
  for (auto& [traceId, t] : traces) {
    std::uint64_t rootId = 0;
    int roots = 0;
    std::unordered_map<std::uint64_t, const TraceSpan*> remotes;
    for (const TraceSpan& s : t.spans) {
      if (s.name == "shard.lifecycle") {
        ++roots;
        rootId = s.id;
        t.totalSeconds = s.duration;
        if (s.outcome == "failed") t.failed = true;
        if (s.outcome == "abandoned") t.abandoned = true;
      } else if (s.name == "shard.remote") {
        remotes.emplace(s.id, &s);
        ++t.dispatches;
        t.wireSeconds += s.duration;  // execute portion subtracted below
        // MWDriver::requeue ends a failed attempt "error" or "lost".
        if (s.outcome == "error" || s.outcome == "lost") ++t.requeues;
      }
    }
    if (roots == 0) {
      problem(traceId, "missing shard.lifecycle root");
      // Fall back to the span envelope so the straggler sort still works.
      double lo = std::numeric_limits<double>::infinity(), hi = -lo;
      for (const TraceSpan& s : t.spans) {
        lo = std::min(lo, s.start);
        hi = std::max(hi, s.start + s.duration);
      }
      if (hi > lo) t.totalSeconds = hi - lo;
    } else if (roots > 1) {
      problem(traceId, "multiple shard.lifecycle roots");
    }

    std::set<std::uint64_t> remotesWithExecute;
    double okRemoteEnd = -1.0;
    double terminalStart = -1.0;
    int terminals = 0;
    for (const TraceSpan& s : t.spans) {
      if (s.name == "shard.queue") {
        t.queueSeconds += s.duration;
        if (rootId != 0 && s.parent != rootId) {
          problem(traceId, "shard.queue not parented under the lifecycle root");
        }
      } else if (s.name == "shard.remote") {
        if (rootId != 0 && s.parent != rootId) {
          problem(traceId, "shard.remote not parented under the lifecycle root");
        }
        if (s.outcome == "ok") okRemoteEnd = s.start + s.duration;
      } else if (s.name == "worker.execute") {
        t.executeSeconds += s.duration;
        const auto it = remotes.find(s.parent);
        if (it == remotes.end()) {
          problem(traceId, "orphan worker.execute (parent matches no shard.remote)");
        } else {
          remotesWithExecute.insert(s.parent);
          t.wireSeconds = std::max(0.0, t.wireSeconds - s.duration);
        }
      } else if (s.name == "shard.folded" || s.name == "shard.discarded") {
        ++terminals;
        terminalStart = std::max(terminalStart, s.start);
        if (s.name == "shard.folded") t.folded = true;
        else t.discarded = true;
        if (s.parent != 0 && rootId != 0 && s.parent != rootId) {
          problem(traceId, s.name + " not parented under the lifecycle root");
        }
      }
    }
    // Failed roots (retry budget exhausted) and abandoned roots (shutdown
    // with the task queued or in flight) are legitimately terminal-less;
    // an abandoned task may also legitimately never have been dispatched.
    if (terminals == 0 && !t.failed && !t.abandoned) {
      problem(traceId, "no terminal marker (shard.folded / shard.discarded)");
    } else if (terminals > 1) {
      problem(traceId, "multiple terminal markers");
    }
    if (t.dispatches == 0 && !t.abandoned) {
      problem(traceId, "no shard.remote dispatch span");
    }
    // Every completed dispatch should carry a worker.execute child — but
    // only demand it when that worker's trace file was actually supplied
    // (a master-only analysis still verifies the master-side tree).
    for (const auto& [id, remote] : remotes) {
      if (remote->outcome != "ok") continue;  // lost workers never report
      const int rank = remote->rank;
      if (rank >= 0 && !ranksWithExecuteSpans.contains(rank)) continue;
      if (!report.workerSpansSeen) continue;
      if (!remotesWithExecute.contains(id)) {
        problem(traceId, "completed shard.remote has no worker.execute child");
      }
    }
    if (okRemoteEnd >= 0.0 && terminalStart >= 0.0) {
      t.foldSeconds = std::max(0.0, terminalStart - okRemoteEnd);
    }

    report.dispatched += static_cast<std::uint64_t>(t.dispatches);
    report.requeues += static_cast<std::uint64_t>(t.requeues);
    if (t.folded) ++report.folded;
    if (t.discarded) ++report.discarded;
    if (t.failed) ++report.failed;
    if (t.abandoned) ++report.abandoned;
    report.queueSeconds += t.queueSeconds;
    report.wireSeconds += t.wireSeconds;
    report.executeSeconds += t.executeSeconds;
    report.foldSeconds += t.foldSeconds;

    TraceNamespaceReport& nsr = nsReports[traceId >> kTraceNamespaceShift];
    ++nsr.traces;
    nsr.requeues += static_cast<std::uint64_t>(t.requeues);
    if (t.folded) ++nsr.folded;
    if (t.discarded) ++nsr.discarded;
    if (t.failed) ++nsr.failed;
    if (t.abandoned) ++nsr.abandoned;
  }
  report.traces = traces.size();
  for (auto& [ns, nsr] : nsReports) {
    nsr.ns = ns;
    report.namespaces.push_back(nsr);
  }

  // 4. Worker utilization (busy fraction of the run's wall span) and
  // clock-offset annotations.
  for (auto& [rank, w] : workers) {
    if (const auto it = offsets.find(rank); it != offsets.end()) {
      w.clockOffsetSeconds = it->second;
      w.offsetKnown = true;
    }
    if (report.wallSeconds > 0.0) w.utilization = w.busySeconds / report.wallSeconds;
    report.workers.push_back(w);
  }

  // 5. Stragglers: the slowest shard lifecycles, largest first.
  std::vector<ShardTrace> byDuration;
  byDuration.reserve(traces.size());
  for (const auto& [id, t] : traces) byDuration.push_back(t);
  std::sort(byDuration.begin(), byDuration.end(),
            [](const ShardTrace& a, const ShardTrace& b) {
              return a.totalSeconds > b.totalSeconds;
            });
  if (topStragglers >= 0 &&
      byDuration.size() > static_cast<std::size_t>(topStragglers)) {
    byDuration.resize(static_cast<std::size_t>(topStragglers));
  }
  report.stragglers = std::move(byDuration);
  return report;
}

}  // namespace sfopt::telemetry
