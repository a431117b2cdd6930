// Multilevel splitting (RESTART-style) over the frame-tail window.
//
// A trajectory's "proximity" to the paper's inconsistency geometry is a
// monotone level function computed from the injector's flip counters:
//
//   level 0  nothing yet
//   level 1  any tail disturbance (a flip inside the window)
//   level 2  receiver split component: some receiver's view disturbed
//   level 3  transmitter masked as well: both sides of the Fig. 3a
//            geometry present (receiver disturbed AND transmitter
//            disturbed inside the window)
//
// When a trajectory first reaches a new level it is *split*: the whole
// machine state of the bus is cloned (clone_bus, scenario/probe.hpp — the
// probe module's bus clone, applied mid-window) into `factor` children,
// each continuing with an independent random stream and 1/factor of the
// parent's weight.  Total weight is conserved at every split, so the
// estimator stays unbiased while the effort concentrates on trajectories
// that already crossed the rare thresholds.  Splitting runs on top of the
// biased proposal (the likelihood ratio still corrects to the nominal
// measure), so the two variance-reduction mechanisms compose — and give an
// estimate with *different* error structure than plain importance
// sampling, which the campaigns cross-validate against each other.
#pragma once

#include "rare/trial.hpp"

namespace mcan {

struct SplitParams {
  int factor = 4;          ///< children per level crossing
  int max_particles = 256; ///< per-root cap; crossings beyond it stop splitting
                           ///< (weight-neutral, so the estimate stays unbiased)

  /// Throws std::invalid_argument on a non-positive factor or cap.
  void validate() const;
};

/// Aggregate Horvitz–Thompson contribution of one root trial and all of
/// its split descendants.
struct SplitTrialResult {
  double x_imo = 0;      ///< sum over leaves of I(imo) * exp(llr) * weight
  double x_dup = 0;
  long long leaves = 0;  ///< trajectories run to quiescence
  long long timeouts = 0;
  int max_level = 0;     ///< highest level any descendant reached
};

/// Run one root trial with splitting.  Requires a tail-only plan
/// (plan.t_first > 0 with a prefix template): levels are defined by
/// window flips, so flips must be confined to the window.  When the clean
/// bus is quiet by the window start, the root runs from bit 0 as a plain
/// trial and is its only leaf.
[[nodiscard]] SplitTrialResult run_split_trial(const ProbePlan& plan,
                                               const PrefixState& prefix,
                                               const SplitParams& sp,
                                               Rng rng);

}  // namespace mcan
