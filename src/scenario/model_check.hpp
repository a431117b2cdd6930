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
//   * prefix cloning — one template bus (PrefixState) is stepped through
//     the clean prefix once; each case starts from a clone of it at the
//     window start (clone_bus);
//   * tail memoization — after the last possible flip the bus evolves
//     deterministically, so the quiescence tail is keyed on the
//     receiver-canonical machine state of the nodes (TailMemo) and each
//     distinct end-game state is simulated once;
//   * symmetry reduction — receiver nodes are interchangeable, so only a
//     canonical representative per receiver-permutation orbit is run and
//     its outcome is counted with the orbit size as weight;
//   * work distribution — each first-flip subtree is one parallel_for
//     index (util/parallel.hpp) that worker threads claim dynamically, so
//     uneven subtree cost does not serialise the sweep.  Tallies are kept
//     per subtree and merged in subtree order, so a sweep reports the
//     same counts and examples for any jobs value, budget-cut or not;
//   * one episode bus per thread — a cloned case runs on the calling
//     thread's reused Network (EpisodeRun, scenario/probe.hpp) instead of
//     building N controllers per case.
//
// The episode, prefix template, bus clone, tail memo and verdict are the
// probe module's (scenario/probe.hpp), shared with the rare-event engine
// and the randomised EOF campaign.
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

#include "scenario/exhaustive.hpp"
#include "scenario/probe.hpp"
#include "util/options.hpp"

namespace mcan {

struct ModelCheckConfig {
  ExhaustiveConfig base;

  /// Worker threads; 0 = one per hardware thread.  jobs=1 runs inline.
  int jobs = 0;

  /// Tail memoization + prefix cloning.
  bool dedup = true;

  /// Receiver-permutation symmetry reduction.
  bool symmetry = true;

  /// Budget: check only the first this many canonical flip patterns in
  /// enumeration order (0 = exhaustive), whatever the jobs value.  A
  /// budget-cut result has complete == false and reports the explored
  /// prefix of the space — useful for k beyond exhaustive reach (k = 5 at
  /// m = 5).
  long long max_cases = 0;

  /// How many concrete counterexamples to keep.
  int max_examples = 5;

  /// Throws std::invalid_argument on unusable values (delegates to
  /// base.validate() for the window checks).
  void validate() const;
};

/// Periodic progress callback: (combinations visited, total combinations).
/// Called from worker threads — must be thread-safe (ProgressMeter is).
using CheckProgressFn = std::function<void(long long, long long)>;

[[nodiscard]] ModelCheckResult run_model_check(
    const ModelCheckConfig& cfg, const CheckProgressFn& progress = {});

// ---------------------------------------------------------------------------
// A sweep: every protocol of a set at k = 1..max_k — what mcan-check,
// bench_model_check and the serve "check" backend run.  Its options are
// declared once, in check_sweep_options().
// ---------------------------------------------------------------------------

struct CheckSweep {
  std::vector<ProtocolParams> protocols;  ///< empty = default_protocol_set()
  int max_k = 2;                          ///< sweep k = 1..max_k
  int nodes = 3;
  long long budget = 0;  ///< case cap per sweep (0 = exhaustive)
  bool dedup = true;
  bool symmetry = true;

  /// The given protocols, or the default set.
  [[nodiscard]] std::vector<ProtocolParams> protocol_set() const;

  /// The one protocol a single-target command (a fuzz campaign, a run)
  /// takes: the given one, or CAN.  Throws std::invalid_argument when
  /// more than one was given.
  [[nodiscard]] ProtocolParams single_protocol() const;

  /// The engine config of one sweep unit; jobs, window and example count
  /// stay at their ModelCheckConfig defaults.
  [[nodiscard]] ModelCheckConfig unit(const ProtocolParams& p, int k) const;
};

/// The sweep options in job-spec order (the "check" fingerprint's):
/// --protocol/-p (repeatable), --errors/-k, --nodes/-n, --budget,
/// --no-dedup, --no-symmetry.
[[nodiscard]] const OptionTable<CheckSweep>& check_sweep_options();

// ---------------------------------------------------------------------------
// Single-case execution (shared with the counterexample minimizer and
// tests): one concrete flip pattern, simulated in isolation with the
// reference semantics.
// ---------------------------------------------------------------------------

struct FlipCaseResult : ProbeVerdict {
  std::string describe;  ///< classification text ("IMO: deliveries 0 1")
};

/// Run one flip pattern (EOF-relative positions, same grid as the sweeps)
/// to quiescence and classify it.
[[nodiscard]] FlipCaseResult run_flip_case(
    const ProtocolParams& protocol, int n_nodes,
    const std::vector<std::pair<NodeId, int>>& flips);

}  // namespace mcan
