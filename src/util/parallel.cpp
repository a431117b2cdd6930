#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mcan {

int resolve_jobs(int jobs) {
  if (jobs < 0) {
    throw std::invalid_argument("jobs must be >= 0 (0 = one per core)");
  }
  if (jobs > 0) return jobs;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t threads =
      std::min(static_cast<std::size_t>(resolve_jobs(jobs)), n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  // One slot per worker, written only by that worker and read after the
  // join, so recording a failure needs no lock.
  std::vector<std::exception_ptr> errors(threads);
  const auto worker = [&](std::size_t w) {
    try {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    } catch (...) {
      errors[w] = std::current_exception();
      next.store(n);  // the other workers stop at their next claim
    }
  };
  {
    // jthread joins on destruction, also if starting a later thread throws.
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) pool.emplace_back(worker, w);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace mcan
