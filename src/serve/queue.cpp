#include "serve/queue.hpp"

#include <algorithm>
#include <utility>

#include "util/text.hpp"

namespace mcan {

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

bool job_state_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

struct JobManager::Shard {
  enum class Status { kPending, kClaimed, kDone };
  Status status = Status::kPending;
  std::uint64_t generation = 0;
  int retries = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct JobManager::Job {
  std::uint64_t id = 0;
  int priority = 0;
  JobState state = JobState::kQueued;
  std::string kind;
  std::string spec_text;
  std::string fingerprint;
  /// The engine; released (null) once the job is terminal.  Shared with
  /// the workers' claims, so a shard still executing keeps it alive.
  std::shared_ptr<CampaignBackend> backend;

  // Current round.
  std::uint64_t round = 0;
  bool planned = false;
  std::vector<Shard> shards;
  std::size_t shards_done_round = 0;

  // Progress / bookkeeping.
  std::uint64_t units_done = 0;
  std::uint64_t units_total = 0;
  std::uint64_t rounds_merged = 0;
  std::uint64_t shards_completed = 0;
  std::uint64_t retries_total = 0;
  std::uint64_t resumed_units = 0;
  std::uint64_t last_snap_units = 0;
  std::string result;  ///< done: result bytes
  std::string error;   ///< failed: why
};

JobManager::JobManager(ServeConfig cfg)
    : cfg_(std::move(cfg)),
      journal_(cfg_.journal_dir),
      t0_(std::chrono::steady_clock::now()) {
  if (cfg_.shard_size == 0) cfg_.shard_size = 16;
  if (cfg_.capacity == 0) cfg_.capacity = 1;
}

JobManager::~JobManager() { stop(); }

JobManager::Job* JobManager::find_locked(std::uint64_t id) {
  for (auto& job : jobs_) {
    if (job->id == id) return job.get();
  }
  return nullptr;
}

const JobManager::Job* JobManager::find_locked(std::uint64_t id) const {
  for (const auto& job : jobs_) {
    if (job->id == id) return job.get();
  }
  return nullptr;
}

std::size_t JobManager::live_locked() const {
  std::size_t n = 0;
  for (const auto& job : jobs_) {
    if (!job_state_terminal(job->state)) ++n;
  }
  return n;
}

std::vector<std::string> JobManager::recover() {
  std::vector<std::string> notes;
  MutexLock lock(mu_);
  for (JournalRecord& rec : journal_.load_dir(notes)) {
    auto job = std::make_shared<Job>();
    job->id = rec.id;
    job->priority = rec.priority;
    job->spec_text = rec.spec_text;
    job->fingerprint = rec.fingerprint;
    next_id_ = std::max(next_id_, rec.id + 1);
    if (rec.terminal != JournalTerminal::kNone) {
      // Terminal jobs come back queryable, not runnable.
      switch (rec.terminal) {
        case JournalTerminal::kDone:
          job->state = JobState::kDone;
          job->result = rec.result;
          break;
        case JournalTerminal::kFailed:
          job->state = JobState::kFailed;
          job->error = rec.result;
          break;
        default:
          job->state = JobState::kCancelled;
          break;
      }
      job->units_done = rec.snap_units;
      job->kind = "?";
      Json spec;
      std::string err;
      if (Json::parse(rec.spec_text, spec, err)) {
        if (const Json* b = spec.find("backend"); b && b->is_string()) {
          job->kind = b->as_string();
        }
      }
      notes.push_back("job " + std::to_string(job->id) + ": restored " +
                      job_state_name(job->state));
      jobs_.push_back(std::move(job));
      continue;
    }
    // In-flight job: rebuild the backend and resume from the snapshot.
    Json spec;
    std::string err;
    std::unique_ptr<CampaignBackend> backend;
    if (!Json::parse(rec.spec_text, spec, err)) {
      err = "journal spec does not parse: " + err;
    } else {
      backend = make_backend(spec, err);
    }
    if (backend && backend->fingerprint() != rec.fingerprint) {
      backend.reset();
      err = "journal fingerprint mismatch (spec semantics changed?)";
    }
    if (backend && rec.has_snapshot && !backend->restore(rec.snapshot)) {
      backend.reset();
      err = "journal snapshot does not restore";
    }
    if (!backend) {
      job->state = JobState::kFailed;
      job->error = err;
      (void)journal_.append_failed(job->id, err);
      notes.push_back("job " + std::to_string(job->id) + ": failed: " + err);
    } else {
      job->kind = backend->kind();
      job->units_total = backend->units_total();
      job->units_done = backend->units_done();
      job->resumed_units = job->units_done;
      job->last_snap_units = job->units_done;
      job->backend = std::move(backend);
      notes.push_back("job " + std::to_string(job->id) + ": resuming " +
                      job->kind + " at " + std::to_string(job->units_done) +
                      "/" + std::to_string(job->units_total) + " units");
    }
    jobs_.push_back(std::move(job));
  }
  work_cv_.notify_all();
  return notes;
}

std::uint64_t JobManager::submit(const Json& spec, int priority,
                                 std::string& error, bool& rejected) {
  rejected = false;
  MutexLock lock(mu_);
  if (stopped_) {
    error = "server is shutting down";
    return 0;
  }
  if (live_locked() >= cfg_.capacity) {
    rejected = true;
    error = "queue full (" + std::to_string(cfg_.capacity) +
            " live jobs); retry later";
    return 0;
  }
  std::unique_ptr<CampaignBackend> backend = make_backend(spec, error);
  if (!backend) return 0;
  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->priority = priority;
  job->kind = backend->kind();
  job->spec_text = spec.dump();
  job->fingerprint = backend->fingerprint();
  job->units_total = backend->units_total();
  job->backend = std::move(backend);
  if (!journal_.open(job->id, priority, job->spec_text, job->fingerprint)) {
    error = "cannot write job journal in " + journal_.dir();
    return 0;
  }
  const std::uint64_t id = job->id;
  jobs_.push_back(std::move(job));
  work_cv_.notify_all();
  return id;
}

bool JobManager::cancel(std::uint64_t id, std::string& error) {
  MutexLock lock(mu_);
  Job* job = find_locked(id);
  if (!job) {
    error = "unknown job " + std::to_string(id);
    return false;
  }
  if (job_state_terminal(job->state)) {
    error = "job " + std::to_string(id) + " is already " +
            job_state_name(job->state);
    return false;
  }
  job->state = JobState::kCancelled;
  job->planned = false;
  job->shards.clear();  // outstanding completions become stale
  job->backend.reset();
  (void)journal_.append_cancelled(id);
  work_cv_.notify_all();
  return true;
}

bool JobManager::status(std::uint64_t id, JobProgress& out) const {
  MutexLock lock(mu_);
  const Job* job = find_locked(id);
  if (!job) return false;
  out = progress_locked(*job);
  return true;
}

bool JobManager::result(std::uint64_t id, JobState& out_state,
                        std::string& out, std::string& error) const {
  MutexLock lock(mu_);
  const Job* job = find_locked(id);
  if (!job) {
    error = "unknown job " + std::to_string(id);
    out_state = JobState::kFailed;
    return false;
  }
  out_state = job->state;
  switch (job->state) {
    case JobState::kDone:
      out = job->result;
      return true;
    case JobState::kFailed:
      error = job->error.empty() ? "job failed" : job->error;
      return false;
    case JobState::kCancelled:
      error = "job was cancelled";
      return false;
    default:
      error = "job is " + std::string(job_state_name(job->state));
      return false;
  }
}

std::vector<JobProgress> JobManager::jobs() const {
  MutexLock lock(mu_);
  std::vector<JobProgress> out;
  out.reserve(jobs_.size());
  for (const auto& job : jobs_) out.push_back(progress_locked(*job));
  return out;
}

JobProgress JobManager::progress_locked(const Job& job) const {
  JobProgress p;
  p.id = job.id;
  p.priority = job.priority;
  p.state = job.state;
  p.kind = job.kind;
  p.units_done = job.units_done;
  p.units_total = job.units_total;
  p.rounds = job.rounds_merged;
  p.shards_done = job.shards_completed;
  p.retries = job.retries_total;
  p.resumed_units = job.resumed_units;
  p.error = job.error;
  return p;
}

Json JobManager::stats(std::size_t workers) const {
  MutexLock lock(mu_);
  Json j = Json::object();
  j.set("workers", Json(static_cast<long long>(workers)));
  j.set("capacity", Json(static_cast<long long>(cfg_.capacity)));
  Json by_state = Json::object();
  long long queued = 0, running = 0, done = 0, failed = 0, cancelled = 0;
  for (const auto& job : jobs_) {
    switch (job->state) {
      case JobState::kQueued: ++queued; break;
      case JobState::kRunning: ++running; break;
      case JobState::kDone: ++done; break;
      case JobState::kFailed: ++failed; break;
      case JobState::kCancelled: ++cancelled; break;
    }
  }
  by_state.set("queued", Json(queued));
  by_state.set("running", Json(running));
  by_state.set("done", Json(done));
  by_state.set("failed", Json(failed));
  by_state.set("cancelled", Json(cancelled));
  by_state.set("total", Json(static_cast<long long>(jobs_.size())));
  j.set("jobs", std::move(by_state));
  j.set("queue_depth", Json(queued + running));
  Json shards = Json::object();
  shards.set("completed", Json(static_cast<long long>(shards_completed_)));
  shards.set("requeued", Json(static_cast<long long>(shards_requeued_)));
  shards.set("stale_completions",
             Json(static_cast<long long>(stale_completions_)));
  j.set("shards", std::move(shards));
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  Json tput = Json::object();
  tput.set("units_merged", Json(static_cast<long long>(units_merged_)));
  tput.set("uptime_s", Json(uptime));
  tput.set("units_per_s",
           Json(uptime > 0 ? static_cast<double>(units_merged_) / uptime
                           : 0.0));
  j.set("throughput", std::move(tput));
  Json per_job = Json::array();
  for (const auto& job : jobs_) {
    const JobProgress p = progress_locked(*job);
    Json item = Json::object();
    item.set("id", Json(static_cast<long long>(p.id)));
    item.set("backend", Json(p.kind));
    item.set("state", Json(job_state_name(p.state)));
    item.set("priority", Json(static_cast<long long>(p.priority)));
    item.set("units_done", Json(static_cast<long long>(p.units_done)));
    item.set("units_total", Json(static_cast<long long>(p.units_total)));
    item.set("rounds", Json(static_cast<long long>(p.rounds)));
    item.set("shards_done", Json(static_cast<long long>(p.shards_done)));
    item.set("retries", Json(static_cast<long long>(p.retries)));
    if (p.resumed_units > 0) {
      item.set("resumed_units", Json(static_cast<long long>(p.resumed_units)));
    }
    if (!p.error.empty()) item.set("error", Json(p.error));
    per_job.push(std::move(item));
  }
  j.set("per_job", std::move(per_job));
  return j;
}

// --- worker interface -----------------------------------------------------

bool JobManager::plan_locked(Job& job) {
  const std::size_t n = job.backend->plan_round();
  if (n == 0) {
    finalize_locked(job);
    return false;
  }
  std::size_t shard_size = job.backend->shard_size_hint();
  if (shard_size == 0) shard_size = cfg_.shard_size;
  job.shards.clear();
  for (std::size_t begin = 0; begin < n; begin += shard_size) {
    Shard s;
    s.begin = begin;
    s.end = std::min(begin + shard_size, n);
    job.shards.push_back(s);
  }
  job.shards_done_round = 0;
  job.planned = true;
  return true;
}

void JobManager::finalize_locked(Job& job) {
  if (job.backend->finished()) {
    job.result = job.backend->result_json();
    job.state = JobState::kDone;
    job.units_done = job.backend->units_done();
    (void)journal_.append_done(job.id, job.result);
  } else {
    fail_locked(job, "backend stopped planning before it finished");
  }
  job.planned = false;
  job.shards.clear();
  // The result bytes are captured: the engine state is no longer needed
  // and would otherwise live as long as the daemon.
  job.backend.reset();
  work_cv_.notify_all();
}

void JobManager::fail_locked(Job& job, const std::string& why) {
  job.state = JobState::kFailed;
  job.error = why;
  job.planned = false;
  job.shards.clear();
  job.backend.reset();
  (void)journal_.append_failed(job.id, why);
  work_cv_.notify_all();
}

bool JobManager::claim_wait(Claim& out) {
  UniqueMutexLock lock(mu_);
  for (;;) {
    if (stopped_) return false;
    // Highest priority first, then submission order: stable ordering so
    // equal-priority jobs drain FIFO.
    std::vector<Job*> order;
    order.reserve(jobs_.size());
    for (auto& job : jobs_) {
      if (!job_state_terminal(job->state)) order.push_back(job.get());
    }
    std::stable_sort(order.begin(), order.end(), [](Job* a, Job* b) {
      return a->priority > b->priority;
    });
    for (Job* job : order) {
      if (!job->planned) {
        if (!plan_locked(*job)) continue;  // finished or failed instead
      }
      for (std::size_t i = 0; i < job->shards.size(); ++i) {
        Shard& s = job->shards[i];
        if (s.status != Shard::Status::kPending) continue;
        s.status = Shard::Status::kClaimed;
        job->state = JobState::kRunning;
        out.ref = {job->id,  job->round, i, s.generation,
                   s.begin,  s.end};
        // Shared ownership keeps the backend alive across the lock-free
        // execute phase, even if the job ends and releases it meanwhile.
        out.backend = job->backend;
        return true;
      }
    }
    // The wait releases and reacquires mu_; it is held again when the
    // call returns, so the scoped capability stays accurate.
    work_cv_.wait(lock.native());
  }
}

bool JobManager::stale_locked(const Job* job, const ShardRef& ref) const {
  return job == nullptr || job_state_terminal(job->state) ||
         ref.round != job->round || ref.shard >= job->shards.size() ||
         job->shards[ref.shard].generation != ref.generation ||
         job->shards[ref.shard].status == Shard::Status::kDone;
}

void JobManager::complete(const ShardRef& ref) {
  MutexLock lock(mu_);
  Job* job = find_locked(ref.job_id);
  if (stale_locked(job, ref)) {
    ++stale_completions_;
    return;
  }
  job->shards[ref.shard].status = Shard::Status::kDone;
  ++job->shards_done_round;
  ++job->shards_completed;
  ++shards_completed_;
  if (job->shards_done_round == job->shards.size()) merge_locked(*job);
}

void JobManager::merge_locked(Job& job) {
  job.backend->merge_round();
  ++job.rounds_merged;
  ++job.round;
  job.planned = false;
  job.shards.clear();
  const std::uint64_t units = job.backend->units_done();
  units_merged_ += units - job.units_done;
  job.units_done = units;
  snapshot_locked(job, /*force=*/false);
  // Plan the next round right away so waiting workers wake into work.
  plan_locked(job);
  work_cv_.notify_all();
}

void JobManager::snapshot_locked(Job& job, bool force) {
  if (!journal_.enabled() || !job.backend) return;
  if (!force && job.units_done - job.last_snap_units < cfg_.checkpoint_every) {
    return;
  }
  if (job.units_done == job.last_snap_units) return;
  const std::string payload = job.backend->checkpoint();
  if (payload.empty()) return;  // backend without snapshots (check)
  if (journal_.append_snapshot(job.id, job.units_done, payload)) {
    job.last_snap_units = job.units_done;
  }
}

void JobManager::abandon(const ShardRef& ref) {
  MutexLock lock(mu_);
  Job* job = find_locked(ref.job_id);
  if (stale_locked(job, ref)) {
    ++stale_completions_;
    return;
  }
  Shard& s = job->shards[ref.shard];
  ++s.retries;
  ++job->retries_total;
  ++shards_requeued_;
  if (s.retries > cfg_.max_retries) {
    fail_locked(*job,
                "shard " + std::to_string(ref.shard) + " of round " +
                    std::to_string(ref.round) + " exceeded " +
                    std::to_string(cfg_.max_retries) + " retries");
    return;
  }
  s.status = Shard::Status::kPending;
  ++s.generation;  // the dead worker's completion is now stale
  work_cv_.notify_all();
}

void JobManager::stop() {
  MutexLock lock(mu_);
  stopped_ = true;
  work_cv_.notify_all();
}

bool JobManager::stopped() const {
  MutexLock lock(mu_);
  return stopped_;
}

void JobManager::flush_journals() {
  MutexLock lock(mu_);
  for (auto& job : jobs_) {
    if (!job_state_terminal(job->state)) {
      snapshot_locked(*job, /*force=*/true);
    }
  }
}

}  // namespace mcan
