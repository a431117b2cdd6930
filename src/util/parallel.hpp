// The one parallel loop every campaign engine uses.
//
// Engines split their work into independent, indexed units (fuzz slots,
// rare-event trials, model-check subtrees, rsm first-flip targets, EOF
// campaign ranges), give each unit its own result slot, and merge the
// slots in index order afterwards.  parallel_for only decides which
// thread runs which index, so results never depend on the `jobs` value.
#pragma once

#include <cstddef>
#include <functional>

namespace mcan {

/// Thread count for a `jobs` setting: `jobs` itself when positive, one per
/// hardware thread (at least 1) when 0.  Throws std::invalid_argument for
/// a negative value.
[[nodiscard]] int resolve_jobs(int jobs);

/// Run fn(i) for every i in [0, n) on min(resolve_jobs(jobs), n) threads
/// that claim indices from one shared counter.  With one thread it runs
/// inline on the caller's thread.  Threads are started per call and joined
/// before it returns.  If fn throws, no further indices are claimed and
/// the exception is rethrown to the caller after the join.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace mcan
