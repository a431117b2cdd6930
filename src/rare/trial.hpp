// One rare-event trial: the probe scenario (the model checker's tagged
// frame, transmitted by node 0 to N-1 receivers), executed under the
// importance-sampling injector and classified with the reference
// inconsistency semantics (IMO / duplicate / total loss / timeout).
//
// Trials in tail-only mode share a clean-prefix template: one bus is
// stepped (fault-free) to the start of the flip window, and every trial
// starts from a cloned copy (CanController::clone_runtime_state +
// Simulator::warp_to) — the same machinery the model checker uses for
// prefix cloning.  The skipped Bernoulli draws are folded into the
// trial's likelihood ratio analytically, so the estimator is exactly the
// one a full from-bit-0 simulation would produce for tail-window events.
// Their tails (everything after the flip window) come from the campaign's
// tail memo, the model checker's too: the draws a memo hit stands in for
// are all forced clean and are folded in the same way.
#pragma once

#include <memory>
#include <vector>

#include "core/network.hpp"
#include "rare/bias.hpp"
#include "scenario/tail_memo.hpp"

namespace mcan {

/// Per-campaign constants: the probe frame, its EOF anchor, the resolved
/// bias profile and the derived cloning cut.
struct ProbePlan {
  ProtocolParams protocol;
  int n_nodes = 32;
  double ber_star = 0;       ///< nominal per-node per-bit probability
  BiasProfile bias;          ///< resolved window + proposal
  Frame frame;               ///< the tagged probe frame
  int eof_start = 0;         ///< absolute bit of the first EOF bit
  BitTime t_first = 0;       ///< prefix-clone cut (0 = simulate from bit 0)
  BitTime quiet_budget = 30000;

  /// Resolve the plan: probe frame, EOF anchor, bias window defaults, and
  /// the clone cut (only in tail-only mode, where the prefix is provably
  /// clean under the proposal).
  [[nodiscard]] static ProbePlan make(const ProtocolParams& protocol,
                                      int n_nodes, double ber,
                                      BiasProfile bias,
                                      BitTime quiet_budget = 30000);

  /// Bernoulli draws skipped by starting at t_first instead of bit 0.
  [[nodiscard]] long long prefix_draws() const {
    return static_cast<long long>(n_nodes) * static_cast<long long>(t_first);
  }

  /// The first bit after the flip window: past it every draw is forced
  /// clean (tail-only mode), so the trial's tail can be memoised.
  [[nodiscard]] BitTime t_cut() const {
    return static_cast<BitTime>(eof_start + bias.win_hi_rel + 1);
  }
};

/// The shared clean-prefix template (immutable after construction; safe to
/// clone from concurrently).
struct PrefixState {
  Network net;
  std::vector<int> deliveries;  ///< per node, accumulated in the prefix
  int tx_success = 0;

  explicit PrefixState(const ProbePlan& plan);
};

/// Reference classification of a finished run (same semantics as the model
/// checker and bench_imo_rate): deliveries are per-receiver counts.
struct TrialOutcome {
  bool imo = false;      ///< someone (or the sender) has it, someone lacks it
  bool dup = false;      ///< some receiver delivered it twice
  bool loss = false;     ///< sender believes success, nobody has it
  bool timeout = false;  ///< the bus did not quiesce within the budget
  double llr = 0;        ///< log importance weight of the whole run
};

[[nodiscard]] TrialOutcome classify_trial(int n_nodes,
                                          const std::vector<int>& deliveries,
                                          int tx_success, bool timeout);

/// Run one importance-sampled trial.  `prefix` may be null only when
/// plan.t_first == 0 (full simulation from bit 0).  `rng` is the trial's
/// private stream — the caller derives it as Rng(seed, trial_index) so
/// results are independent of scheduling.
///
/// `memo`, when set, is the campaign's shared tail memo
/// (scenario/tail_memo.hpp): a tail-only trial then simulates only the
/// flip window and takes the rest from the memo.  Outcome and llr are
/// bit-identical to the unmemoised run (memo == nullptr).  Ignored when
/// the proposal can flip outside the window (base > 0) or without a prefix.
[[nodiscard]] TrialOutcome run_biased_trial(const ProbePlan& plan,
                                            const PrefixState* prefix,
                                            Rng rng,
                                            TailMemo* memo = nullptr);

/// Build a network positioned at the plan's clone cut: fresh bus cloned
/// from the template (or a fresh bus with the probe enqueued when there is
/// no prefix).  Shared by the plain trial runner and the splitting engine.
[[nodiscard]] std::unique_ptr<Network> make_trial_bus(
    const ProbePlan& plan, const PrefixState* prefix);

}  // namespace mcan
