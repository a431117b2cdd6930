// The job queue and shard scheduler of the campaign service.
//
// A job is one campaign (a CampaignBackend).  The scheduler drives every
// job with the engines' own round discipline and never touches their
// determinism contract:
//
//   plan    — sequential, under the manager lock (plan_round carves the
//             round's slots into shards of shard_size);
//   execute — workers claim shards (highest priority first) and run their
//             slots without any lock; slot execution is pure per slot, so
//             shards may be re-executed after a worker death;
//   merge   — the worker that completes the round's last shard folds it,
//             sequentially, under the lock — identical for any worker
//             count, which is what pins "serve result == local --jobs N
//             run" down to the byte.
//
// Worker death: an abandoned shard returns to the queue with its
// generation bumped, so a completion from the dead worker's ghost is
// recognized as stale and dropped; after max_retries requeues the job
// fails instead of looping forever.  Backpressure: submits beyond
// `capacity` live jobs get an explicit `rejected` response, never an
// unbounded queue.  Crash recovery: every merged round may be
// checkpointed into the job journal (serve/journal.hpp); recover()
// rebuilds jobs from their journals at daemon start.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/backend.hpp"
#include "serve/journal.hpp"
#include "serve/proto.hpp"
#include "util/mutex.hpp"

namespace mcan {

struct ServeConfig {
  std::string journal_dir;        ///< "" = no crash recovery
  std::size_t capacity = 64;      ///< max live (queued+running) jobs
  std::size_t shard_size = 16;    ///< slots per shard (backends may hint 1)
  int max_retries = 3;            ///< shard requeues before the job fails
  std::uint64_t checkpoint_every = 4096;  ///< units between journal snaps
};

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

[[nodiscard]] const char* job_state_name(JobState s);
[[nodiscard]] bool job_state_terminal(JobState s);

/// What a worker holds while executing: the shard's identity (with the
/// generation that guards against stale completions) plus slot range.
struct ShardRef {
  std::uint64_t job_id = 0;
  std::uint64_t round = 0;
  std::size_t shard = 0;       ///< index within the round
  std::uint64_t generation = 0;
  std::size_t begin = 0;       ///< slot range [begin, end)
  std::size_t end = 0;
};

struct Claim {
  ShardRef ref;
  /// Shared with the job, so the backend outlives the job releasing it
  /// while this shard still executes.
  std::shared_ptr<CampaignBackend> backend;
};

/// One job's public progress view (status and stats endpoints).
struct JobProgress {
  std::uint64_t id = 0;
  int priority = 0;
  JobState state = JobState::kQueued;
  std::string kind;
  std::uint64_t units_done = 0;
  std::uint64_t units_total = 0;
  std::uint64_t rounds = 0;
  std::uint64_t shards_done = 0;
  std::uint64_t retries = 0;
  std::uint64_t resumed_units = 0;  ///< journal snapshot the job resumed from
  std::string error;  ///< failed jobs: why
};

class JobManager {
 public:
  explicit JobManager(ServeConfig cfg);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Rebuild jobs from the journal directory (call once, before workers
  /// start).  Returns human-readable notes about what was recovered or
  /// skipped.
  std::vector<std::string> recover();

  /// Submit a job.  Returns the job id, or 0 with either rejected=true
  /// (backpressure: capacity reached, retry later) or a spec error.
  std::uint64_t submit(const Json& spec, int priority, std::string& error,
                       bool& rejected);

  /// Cancel a live job; false (with a message) when unknown or terminal.
  bool cancel(std::uint64_t id, std::string& error);

  [[nodiscard]] bool status(std::uint64_t id, JobProgress& out) const;

  /// Fetch a terminal job's result.  False while the job is still live
  /// (state reported in `out_state` either way) or unknown.
  bool result(std::uint64_t id, JobState& out_state, std::string& out,
              std::string& error) const;

  [[nodiscard]] std::vector<JobProgress> jobs() const;

  /// The stats endpoint body (queue depth, shard counters, throughput,
  /// per-job progress).
  [[nodiscard]] Json stats(std::size_t workers) const;

  // --- worker interface ---------------------------------------------------

  /// Block until a shard is claimable or the manager stops; false = stop.
  bool claim_wait(Claim& out);

  /// Worker finished every slot of the shard.  Stale refs (terminal job,
  /// superseded generation, old round) are counted and dropped.
  void complete(const ShardRef& ref);

  /// Worker died (or was declared dead) while holding the shard: requeue
  /// it with a bumped generation, or fail the job past max_retries.
  void abandon(const ShardRef& ref);

  /// Stop handing out work and wake every waiting worker.
  void stop();
  [[nodiscard]] bool stopped() const;

  /// Checkpoint every live job to the journal (graceful-shutdown flush;
  /// also safe to call periodically).
  void flush_journals();

 private:
  struct Shard;
  struct Job;

  Job* find_locked(std::uint64_t id) MCAN_REQUIRES(mu_);
  const Job* find_locked(std::uint64_t id) const MCAN_REQUIRES(mu_);
  [[nodiscard]] bool stale_locked(const Job* job, const ShardRef& ref) const
      MCAN_REQUIRES(mu_);
  /// plan_round + shard carving; finalizes the job when the campaign is
  /// over.  Returns true if the job now has claimable shards.
  bool plan_locked(Job& job) MCAN_REQUIRES(mu_);
  void merge_locked(Job& job) MCAN_REQUIRES(mu_);
  void finalize_locked(Job& job) MCAN_REQUIRES(mu_);
  void fail_locked(Job& job, const std::string& why) MCAN_REQUIRES(mu_);
  void snapshot_locked(Job& job, bool force) MCAN_REQUIRES(mu_);
  [[nodiscard]] JobProgress progress_locked(const Job& job) const
      MCAN_REQUIRES(mu_);
  [[nodiscard]] std::size_t live_locked() const MCAN_REQUIRES(mu_);

  ServeConfig cfg_;
  mutable Mutex mu_;
  /// The journal has no lock of its own; every append/load goes through
  /// this manager under mu_ (journal.hpp states the contract).
  JobJournal journal_ MCAN_GUARDED_BY(mu_);
  std::condition_variable work_cv_;
  std::vector<std::shared_ptr<Job>> jobs_ MCAN_GUARDED_BY(mu_);
  std::uint64_t next_id_ MCAN_GUARDED_BY(mu_) = 1;
  bool stopped_ MCAN_GUARDED_BY(mu_) = false;

  // Service counters (stats endpoint).
  std::uint64_t shards_completed_ MCAN_GUARDED_BY(mu_) = 0;
  std::uint64_t shards_requeued_ MCAN_GUARDED_BY(mu_) = 0;
  std::uint64_t stale_completions_ MCAN_GUARDED_BY(mu_) = 0;
  /// Units progressed in this process.
  std::uint64_t units_merged_ MCAN_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point t0_;  ///< const after construction
};

}  // namespace mcan
