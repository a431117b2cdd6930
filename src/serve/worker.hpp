// The worker fleet: threads that claim shards from the JobManager,
// execute their slots, and report completion — plus the heartbeat monitor
// that notices dead workers and requeues whatever they were holding.
//
// Execution is the only phase that runs without the manager lock, and
// engines guarantee it is pure per slot, so a worker death costs nothing
// but the requeue: the replacement re-executes the same slots and the
// merged result is bit-identical (the generation token on the shard makes
// any completion from the dead worker's ghost stale).
//
// Death, in process terms: a worker thread leaves its loop without
// completing its shard — an exception escaping execute_slot, or the
// fail_hook test injection that simulates a crashed worker box.  Each
// worker heartbeats between slots; the monitor requeues a dead or silent
// worker's shard after heartbeat_timeout_s.  The timeout must exceed the
// worst-case slot execution time — a merely slow worker that is declared
// dead wastes (harmless, idempotent) duplicate execution.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/queue.hpp"
#include "util/mutex.hpp"

namespace mcan {

struct WorkerPoolConfig {
  int workers = 1;  ///< resolve_jobs(): 0 = one per hardware thread
  /// Monitor: requeue a busy worker's shard when its heartbeat is older
  /// than this.  Dead workers (thread exited) are requeued immediately.
  double heartbeat_timeout_s = 60;
  double monitor_period_s = 0.25;
  /// Test injection: called with the shard a worker just claimed; return
  /// true to make that worker die on the spot (shard left unfinished for
  /// the monitor to requeue).
  std::function<bool(const ShardRef&)> fail_hook;
};

class WorkerPool {
 public:
  WorkerPool(JobManager& manager, WorkerPoolConfig cfg);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void start();

  /// Graceful drain: stop the manager (workers finish their current
  /// shard), then join every thread.  Idempotent.
  void stop_join();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }
  [[nodiscard]] std::uint64_t deaths() const {
    return deaths_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t alive() const;

 private:
  struct WorkerState {
    std::thread thread;
    std::atomic<std::int64_t> beat_ms{0};
    std::atomic<bool> dead{false};
    /// Guards the shard-holding state below.  Per-worker (not the pool
    /// lock): the worker takes it between slots and the monitor takes it
    /// per scan, so the two never contend across workers.
    Mutex mu;
    bool holds_shard MCAN_GUARDED_BY(mu) = false;
    ShardRef current MCAN_GUARDED_BY(mu);
  };

  void worker_main(WorkerState& st);
  void monitor_main() MCAN_EXCLUDES(mu_);
  void set_current(WorkerState& st, const ShardRef& ref);
  void clear_current(WorkerState& st);
  [[nodiscard]] static std::int64_t now_ms();

  JobManager& manager_;
  WorkerPoolConfig cfg_;
  /// Filled by start() before any thread exists, then never resized:
  /// worker/monitor threads only index into it, so it needs no guard.
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::thread monitor_;
  Mutex mu_;
  std::condition_variable stop_cv_;
  bool stopping_ MCAN_GUARDED_BY(mu_) = false;
  bool joined_ MCAN_GUARDED_BY(mu_) = false;
  std::atomic<std::uint64_t> deaths_{0};
};

}  // namespace mcan
