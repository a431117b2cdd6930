// Bounded model checking of the consensus properties — the rsm analogue of
// scenario/exhaustive.hpp, one layer up.
//
// For a given base scenario (protocol, node count, rsm workload),
// enumerate every combination of up to `max_k` view-flips over the
// (node x EOF-relative position x frame index) grid, run the full
// consensus workload for each, and classify the RsmReport.  Within the
// explored window this is complete: MajorCAN_m with max_k <= m must come
// back clean (election safety, log matching, state-machine safety AND
// liveness, since every enumerated case stays inside the envelope), while
// standard CAN yields concrete application-level counterexamples.
//
// Work is parallelised by first-flip index: each worker claims a first
// target, enumerates every combination starting there, and the partial
// results merge in index order — the totals and kept findings are
// identical for any job count.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "rsm/runner.hpp"

namespace mcan {

struct RsmCheckConfig {
  /// Base scenario: protocol, n_nodes and the rsm workload.  Its flips
  /// are ignored; the sweep supplies them.
  ScenarioSpec base;
  int max_k = 2;       ///< combinations of 1..max_k flips
  int win_lo = 0;      ///< EOF-relative window, inclusive
  /// Upper window bound; <0 = auto (whole end-game for MajorCAN, EOF +
  /// intermission otherwise), mirroring ExhaustiveConfig's default.
  int win_hi = -1;
  int max_frames = 2;  ///< flip targets cover frame indices [0, max_frames)
  int jobs = 1;        ///< worker threads; 0 = one per hardware thread
  int max_findings = 8;
  /// Cooperative stop (signal handling); polled between cases.
  const std::atomic<bool>* stop = nullptr;

  [[nodiscard]] int window_hi() const;
};

struct RsmCheckResult {
  long long cases = 0;
  long long clean = 0;
  long long timeouts = 0;    ///< runs that never quiesced
  long long election = 0;    ///< cases with an election-safety violation
  long long log_diverge = 0; ///< cases with a log mismatch
  long long state_diverge = 0;
  long long liveness = 0;
  long long stalls = 0;      ///< cases with a stalled recovery
  std::vector<ScenarioSpec> findings;  ///< first violating cases, in order
  bool stopped = false;      ///< interrupted before the sweep finished

  [[nodiscard]] long long violations() const {
    return cases - clean;
  }
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] RsmCheckResult run_rsm_check(const RsmCheckConfig& cfg);

}  // namespace mcan
