// Tests of the one parallel executor behind every campaign engine
// (util/parallel.hpp): each index runs exactly once for any thread count,
// one thread means the caller's thread, a worker's exception reaches the
// caller, and the `jobs` rule (0 = one per core, negative rejected) holds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace mcan {
namespace {

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 7u, 1000u}) {
    for (const int jobs : {0, 1, 3, 64}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(n, jobs, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "n=" << n << " jobs=" << jobs << " index " << i;
      }
    }
  }
}

TEST(ParallelFor, OneThreadRunsOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  // jobs=1, and a single index whatever jobs asks for.
  for (const auto& [n, jobs] : {std::pair<std::size_t, int>{5, 1}, {1, 64}}) {
    std::vector<std::thread::id> ran_on(n);
    parallel_for(n, jobs,
                 [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
    for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
  }
}

TEST(ParallelFor, RethrowsAWorkersException) {
  for (const int jobs : {1, 4}) {
    EXPECT_THROW(parallel_for(100, jobs,
                              [](std::size_t i) {
                                if (i == 42) throw std::runtime_error("42");
                              }),
                 std::runtime_error)
        << "jobs=" << jobs;
  }
}

TEST(ResolveJobs, ZeroIsOnePerCoreAndNegativeIsRejected) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_THROW((void)resolve_jobs(-1), std::invalid_argument);
  // parallel_for applies the rule even when there is nothing to run.
  EXPECT_THROW(parallel_for(0, -1, [](std::size_t) {}), std::invalid_argument);
}

}  // namespace
}  // namespace mcan
