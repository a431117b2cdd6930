// One rare-event trial: the probe episode (scenario/probe.hpp: the tagged
// frame, transmitted by node 0 to N-1 receivers), executed under the
// importance-sampling injector and judged by the probe verdict (IMO /
// duplicate / total loss / timeout).
//
// Trials in tail-only mode start from the probe module's clean-prefix
// template: one bus is stepped (fault-free) to the start of the flip
// window, and every trial starts from a clone of it.  The skipped
// Bernoulli draws are folded into the trial's likelihood ratio
// analytically, so the estimator is exactly the one a full from-bit-0
// simulation would produce for tail-window events.  When the clean bus is
// already quiet by the window start, the from-bit-0 run never reaches the
// window, so the trial runs from bit 0 instead.  Tails (everything after
// the flip window) come from the campaign's tail memo: the draws a memo
// hit stands in for are all forced clean and are folded in the same way.
#pragma once

#include "rare/bias.hpp"
#include "scenario/probe.hpp"

namespace mcan {

/// Per-campaign constants: the probe episode plus the nominal rate and the
/// resolved bias profile (whose window is the episode's).
struct ProbePlan : ProbeEpisode {
  double ber_star = 0;  ///< nominal per-node per-bit probability
  BiasProfile bias;     ///< resolved window + proposal

  /// Resolve the plan: probe episode, bias window defaults (checked by
  /// check_probe_window), and the clone point (only in tail-only mode,
  /// where the prefix is provably clean under the proposal).
  [[nodiscard]] static ProbePlan make(const ProtocolParams& protocol,
                                      int n_nodes, double ber,
                                      BiasProfile bias,
                                      BitTime quiet_budget = kProbeQuietBudget);

  /// Bernoulli draws skipped by starting at t_first instead of bit 0.
  [[nodiscard]] long long prefix_draws() const {
    return static_cast<long long>(n_nodes) * static_cast<long long>(t_first);
  }
};

/// A trial's verdict plus its log importance weight.
struct TrialOutcome : ProbeVerdict {
  double llr = 0;  ///< log importance weight of the whole run
};

/// Run one importance-sampled trial.  `prefix` may be null only when
/// plan.t_first == 0 (full simulation from bit 0).  `rng` is the trial's
/// private stream — the caller derives it as Rng(seed, trial_index) so
/// results are independent of scheduling.
///
/// `memo`, when set, is the campaign's shared tail memo: a tail-only trial
/// then simulates only the flip window and takes the rest from the memo.
/// Outcome and llr are bit-identical to the unmemoised run (memo ==
/// nullptr).  Ignored when the trial does not start from a clone.
[[nodiscard]] TrialOutcome run_biased_trial(const ProbePlan& plan,
                                            const PrefixState* prefix,
                                            Rng rng,
                                            TailMemo* memo = nullptr);

}  // namespace mcan
