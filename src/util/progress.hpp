// Throttled stderr progress reporting for long sweeps.
//
// Long enumeration campaigns (mcan-check, bench_model_check) can run for
// minutes; a ProgressMeter gives the operator a single in-place updating
// line with completed/total, a cases/sec rate and an ETA, without ever
// flooding a log: updates are rate-limited and the line is only emitted at
// all when enough work has happened to matter.
#pragma once

#include <chrono>
#include <string>

#include "util/mutex.hpp"

namespace mcan {

class ProgressMeter {
 public:
  /// `label` prefixes the line; `total` of 0 means "unknown" (no ETA).
  explicit ProgressMeter(std::string label, long long total = 0,
                         double min_interval_s = 0.5);

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  /// Erases the progress line if one was printed (so subsequent output
  /// starts on a clean line).
  ~ProgressMeter();

  /// Report the absolute number of completed items.  Thread-safe; cheap
  /// when called more often than the throttle interval.
  void update(long long done);

  /// (Re)announce the total, for callers that only learn it mid-run —
  /// e.g. once the engine has resolved the combination count.
  void set_total(long long total);

  /// Erase the in-place line.  Idempotent.
  void finish();

 private:
  void print_line(long long done, double elapsed) MCAN_REQUIRES(mu_);

  std::string label_;       ///< const after construction
  double min_interval_;     ///< const after construction
  std::chrono::steady_clock::time_point start_;  ///< const after construction
  Mutex mu_;
  long long total_ MCAN_GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point last_print_ MCAN_GUARDED_BY(mu_);
  bool printed_ MCAN_GUARDED_BY(mu_) = false;
  bool finished_ MCAN_GUARDED_BY(mu_) = false;
};

}  // namespace mcan
