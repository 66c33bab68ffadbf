#include "service/job_table.hpp"

#include <algorithm>
#include <utility>

namespace sfopt::service {

namespace {

bool isTerminal(JobState s) noexcept {
  return s == JobState::Done || s == JobState::Cancelled || s == JobState::Failed;
}

}  // namespace

JobTable::JobTable(int maxConcurrent, int maxQueued)
    : maxConcurrent_(std::max(maxConcurrent, 1)), maxQueued_(std::max(maxQueued, 0)) {}

void JobTable::track(const JobRecord& rec, int delta) {
  if (rec.state == JobState::Queued) {
    if (delta > 0) {
      queued_.insert(rec.id);
    } else {
      queued_.erase(rec.id);
    }
  } else if (rec.state == JobState::Running) {
    running_ += delta;
  } else if (isTerminal(rec.state)) {
    terminal_ += delta;
  }
}

Admission JobTable::admit(JobSpec spec, int client, double now) {
  Admission a;
  // A job is admitted when it can run now (a concurrency slot is free) or
  // can wait (the queue has room); anything else is a retryable refusal.
  if (runningCount() >= maxConcurrent_ && queuedCount() >= maxQueued_) {
    a.retryable = true;
    a.message = "service at capacity (" + std::to_string(runningCount()) + " running, " +
                std::to_string(queuedCount()) + " queued); retry later";
    return a;
  }
  const std::uint64_t id = nextId_++;
  JobRecord rec;
  rec.id = id;
  rec.spec = std::move(spec);
  rec.state = JobState::Queued;
  rec.client = client;
  rec.submittedAt = now;
  track(jobs_.emplace(id, std::move(rec)).first->second, 1);
  a.accepted = true;
  a.jobId = id;
  a.message = "accepted";
  return a;
}

JobRecord* JobTable::find(std::uint64_t id) {
  const auto it = jobs_.find(id);
  return it != jobs_.end() ? &it->second : nullptr;
}

JobRecord* JobTable::nextQueued() {
  return queued_.empty() ? nullptr : &jobs_.at(*queued_.begin());
}

void JobTable::setState(JobRecord& rec, JobState state) {
  track(rec, -1);
  rec.state = state;
  track(rec, 1);
}

void JobTable::restore(JobRecord rec) {
  const std::uint64_t id = rec.id;
  if (const JobRecord* old = find(id); old != nullptr) track(*old, -1);
  track(jobs_.insert_or_assign(id, std::move(rec)).first->second, 1);
  if (id >= nextId_) nextId_ = id + 1;
}

void JobTable::setNextId(std::uint64_t next) noexcept {
  nextId_ = std::max(nextId_, next);
}

std::vector<std::uint64_t> JobTable::evictFinishedOver(std::size_t cap) {
  std::vector<std::uint64_t> evictedIds;
  // std::map iterates in ascending id order, so the first terminal entries
  // seen are the oldest ones.
  for (auto it = jobs_.begin();
       it != jobs_.end() && terminal_ > static_cast<std::int64_t>(cap);) {
    JobRecord& rec = it->second;
    if (!isTerminal(rec.state)) {
      ++it;
      continue;
    }
    if (rec.thread.joinable()) rec.thread.join();
    track(rec, -1);
    evicted_.emplace(it->first, rec.state);
    evictedIds.push_back(it->first);
    it = jobs_.erase(it);
  }
  return evictedIds;
}

const JobState* JobTable::evictedState(std::uint64_t id) const {
  const auto it = evicted_.find(id);
  return it != evicted_.end() ? &it->second : nullptr;
}

void JobTable::markEvicted(std::uint64_t id, JobState finalState) {
  evicted_.insert_or_assign(id, finalState);
  if (id >= nextId_) nextId_ = id + 1;
}

int JobTable::runningCount() const noexcept { return running_; }

int JobTable::queuedCount() const noexcept { return static_cast<int>(queued_.size()); }

std::int64_t JobTable::completedCount() const noexcept {
  // Evicted jobs were terminal when they left the table; counting them
  // keeps the --max-jobs budget honest under --result-retention.
  return terminal_ + static_cast<std::int64_t>(evicted_.size());
}

bool JobTable::anyActive() const noexcept { return running_ > 0 || !queued_.empty(); }

}  // namespace sfopt::service
