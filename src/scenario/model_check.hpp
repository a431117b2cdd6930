// The model-checking engine: scalable bounded exhaustive verification.
//
// run_exhaustive() (scenario/exhaustive.hpp) visits every k-combination of
// view-flips and simulates each case from bit 0 to quiescence.  That is
// the reference semantics, but it wastes nearly all of its work: every
// case shares the same clean frame prefix, huge numbers of flip patterns
// converge to identical machine states once the flip window has passed,
// and any two cases that differ only by a permutation of the (identical)
// receiver nodes are relabelings of each other.  This engine exploits all
// three structures without changing what is counted:
//
//   * prefix cloning — one template bus is stepped through the clean
//     prefix once; each case starts from a cloned copy of its state
//     (CanController::clone_runtime_state) with the simulator clock warped
//     to the window start;
//   * tail memoization — after the last possible flip the bus evolves
//     deterministically, so the quiescence tail is keyed on the
//     receiver-canonical machine state of the nodes (scenario/tail_memo.hpp,
//     shared with the rare-event engine) and each distinct end-game state
//     is simulated once;
//   * symmetry reduction — receiver nodes are interchangeable, so only a
//     canonical representative per receiver-permutation orbit is run and
//     its outcome is counted with the orbit size as weight;
//   * work distribution — each first-flip subtree is one parallel_for
//     index (util/parallel.hpp) that worker threads claim dynamically, so
//     uneven subtree cost does not serialise the sweep.  Tallies are kept
//     per subtree and merged in subtree order, so a complete sweep reports
//     the same counts and examples for any jobs value.
//
// With jobs=1, dedup=false, symmetry=false the engine degenerates to the
// reference enumerator (same visit order, same counts, same examples);
// tests assert exact agreement of the optimised modes against it.
// docs/MODEL_CHECKING.md carries the soundness argument for each
// reduction.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "frame/frame.hpp"
#include "scenario/exhaustive.hpp"

namespace mcan {

struct ModelCheckConfig {
  ExhaustiveConfig base;

  /// Worker threads; 0 = one per hardware thread.  jobs=1 runs inline.
  int jobs = 0;

  /// Tail memoization + prefix cloning.
  bool dedup = true;

  /// Receiver-permutation symmetry reduction.
  bool symmetry = true;

  /// Budget: stop after checking this many flip patterns (0 = exhaustive).
  /// A budget-cut result has complete == false and reports the explored
  /// prefix of the space — useful for k beyond exhaustive reach (k = 5 at
  /// m = 5).
  long long max_cases = 0;

  /// How many concrete counterexamples to keep.
  int max_examples = 5;

  /// Throws std::invalid_argument on unusable values (delegates to
  /// base.validate() for the window checks).
  void validate() const;
};

struct ModelCheckStats {
  long long enumerated = 0;      ///< combinations visited (incl. skipped)
  long long simulated = 0;       ///< cases actually run on a bus
  long long tail_memo_hits = 0;  ///< cases finished from a memoized tail
  long long symmetry_skips = 0;  ///< non-canonical combos folded into orbits
  std::size_t distinct_tails = 0;  ///< memo table size at the end
  int jobs = 1;                    ///< worker threads actually used
  double seconds = 0.0;            ///< wall-clock time of the sweep
};

struct ModelCheckResult {
  ExhaustiveConfig cfg;  ///< window bound resolved
  bool complete = true;  ///< false iff the max_cases budget cut the sweep
  long long cases = 0;   ///< flip patterns covered (orbit weights included)
  long long imo = 0;
  long long double_rx = 0;
  long long total_loss = 0;
  long long timeouts = 0;
  std::vector<Counterexample> examples;
  ModelCheckStats stats;

  [[nodiscard]] long long violations() const {
    return imo + double_rx + total_loss + timeouts;
  }
  [[nodiscard]] std::string summary() const;
};

/// Periodic progress callback: (combinations visited, total combinations).
/// Called from worker threads — must be thread-safe (ProgressMeter is).
using CheckProgressFn = std::function<void(long long, long long)>;

[[nodiscard]] ModelCheckResult run_model_check(
    const ModelCheckConfig& cfg, const CheckProgressFn& progress = {});

// ---------------------------------------------------------------------------
// Single-case execution (shared with the counterexample minimizer and
// tests): one concrete flip pattern, simulated in isolation with the
// reference semantics.
// ---------------------------------------------------------------------------

struct FlipCaseResult {
  bool imo = false;
  bool dup = false;
  bool loss = false;
  bool timeout = false;
  std::string describe;  ///< classification text ("IMO: deliveries 0 1")

  [[nodiscard]] bool violation() const {
    return imo || dup || loss || timeout;
  }
};

/// Run one flip pattern (EOF-relative positions, same grid as the sweeps)
/// to quiescence and classify it.
[[nodiscard]] FlipCaseResult run_flip_case(
    const ProtocolParams& protocol, int n_nodes,
    const std::vector<std::pair<NodeId, int>>& flips);

/// The probe frame every sweep transmits (also what .scn exports replay).
[[nodiscard]] Frame model_check_frame();

/// Absolute bit time of the probe frame's first EOF bit on a clean bus —
/// the anchor that converts the sweeps' EOF-relative flip positions to the
/// absolute times used by the injector and by .scn exports.
[[nodiscard]] int model_check_eof_start(const ProtocolParams& protocol);

}  // namespace mcan
