#include "serve/worker.hpp"

#include <chrono>

#include "util/parallel.hpp"

namespace mcan {

WorkerPool::WorkerPool(JobManager& manager, WorkerPoolConfig cfg)
    : manager_(manager), cfg_(std::move(cfg)) {
  cfg_.workers = resolve_jobs(cfg_.workers);
}

WorkerPool::~WorkerPool() { stop_join(); }

std::int64_t WorkerPool::now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WorkerPool::start() {
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    auto st = std::make_unique<WorkerState>();
    st->beat_ms.store(now_ms(), std::memory_order_relaxed);
    workers_.push_back(std::move(st));
  }
  for (auto& st : workers_) {
    st->thread = std::thread([this, state = st.get()] { worker_main(*state); });
  }
  monitor_ = std::thread([this] { monitor_main(); });
}

std::size_t WorkerPool::alive() const {
  std::size_t n = 0;
  for (const auto& st : workers_) {
    if (!st->dead.load(std::memory_order_relaxed)) ++n;
  }
  return n;
}

void WorkerPool::set_current(WorkerState& st, const ShardRef& ref) {
  MutexLock lock(st.mu);
  st.current = ref;
  st.holds_shard = true;
}

void WorkerPool::clear_current(WorkerState& st) {
  MutexLock lock(st.mu);
  st.holds_shard = false;
}

void WorkerPool::worker_main(WorkerState& st) {
  for (;;) {
    Claim claim;
    if (!manager_.claim_wait(claim)) return;
    set_current(st, claim.ref);
    st.beat_ms.store(now_ms(), std::memory_order_relaxed);
    if (cfg_.fail_hook && cfg_.fail_hook(claim.ref)) {
      // Simulated worker death: exit holding the shard.  The monitor
      // requeues it; the generation bump orphans this worker forever.
      st.dead.store(true, std::memory_order_relaxed);
      deaths_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    try {
      for (std::size_t i = claim.ref.begin; i < claim.ref.end; ++i) {
        st.beat_ms.store(now_ms(), std::memory_order_relaxed);
        claim.backend->execute_slot(i);
      }
      clear_current(st);
      manager_.complete(claim.ref);
    } catch (...) {
      // A slot blew up: this worker is dead, its shard goes back to the
      // queue for a (bounded) retry by someone else.
      clear_current(st);
      manager_.abandon(claim.ref);
      st.dead.store(true, std::memory_order_relaxed);
      deaths_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

void WorkerPool::monitor_main() {
  const auto period = std::chrono::duration<double>(
      cfg_.monitor_period_s > 0 ? cfg_.monitor_period_s : 0.25);
  const std::int64_t timeout_ms =
      static_cast<std::int64_t>(cfg_.heartbeat_timeout_s * 1000.0);
  for (;;) {
    {
      // Plain wait_for (no predicate): a spurious wakeup only causes an
      // early scan, which is harmless and keeps the lock discipline
      // visible to the thread-safety analysis.
      UniqueMutexLock lock(mu_);
      if (stopping_) return;
      // stop_join() flips stopping_ under mu_, which we hold until the
      // wait releases it — the notify cannot be missed.
      stop_cv_.wait_for(lock.native(), period);
      if (stopping_) return;
    }
    const std::int64_t now = now_ms();
    for (auto& st : workers_) {
      bool requeue = false;
      ShardRef ref;
      {
        MutexLock lock(st->mu);
        if (st->holds_shard) {
          const bool dead = st->dead.load(std::memory_order_relaxed);
          const bool silent =
              timeout_ms > 0 &&
              now - st->beat_ms.load(std::memory_order_relaxed) > timeout_ms;
          if (dead || silent) {
            ref = st->current;
            st->holds_shard = false;
            requeue = true;
          }
        }
      }
      // Requeue outside the worker's lock (abandon takes the manager
      // lock; never hold both).
      if (requeue) manager_.abandon(ref);
    }
  }
}

void WorkerPool::stop_join() {
  {
    MutexLock lock(mu_);
    if (joined_) return;
    joined_ = true;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  manager_.stop();
  for (auto& st : workers_) {
    if (st->thread.joinable()) st->thread.join();
  }
  if (monitor_.joinable()) monitor_.join();
}

}  // namespace mcan
