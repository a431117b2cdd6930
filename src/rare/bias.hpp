// Importance-sampling fault injection for the rare-event campaigns.
//
// The nominal error model is the paper's (§4): every node's view of every
// bit flips independently with probability p = ber* = ber/N.  At the
// Table-1 rates the inconsistency patterns need two position-exact flips
// in the frame tail, so their probability per frame is ~1e-10 and naive
// simulation cannot reach them.  BiasedFaults samples from a *proposal*
// measure instead: inside an EOF-relative tail window the flip probability
// is raised (with extra-hot slots at the positions the Fig. 3a pattern
// needs — the transmitter's last bits and the receivers' last-but-one
// bits), outside the window it is the base rate (or zero in tail-only
// mode).  Every Bernoulli draw contributes its log-likelihood ratio
// log(P(draw)/Q(draw)) to a per-run accumulator, so a run that exhibits an
// event contributes weight exp(llr) to the Horvitz–Thompson estimator —
// which is unbiased for the nominal probability by construction, for any
// proposal that keeps q > 0 wherever the event needs a flip.
//
// Tail-only mode (base = 0) conditions on "no flips outside the window":
// draws outside the window are forced clean and contribute log(1-p) each,
// so the estimator targets P{event AND all flips inside the window} — a
// lower bound on P{event}, and exactly the channel expression (4) models
// (every pattern it counts is clean outside the frame tail).
#pragma once

#include <vector>

#include "core/protocol.hpp"
#include "sim/injector.hpp"
#include "util/rng.hpp"

namespace mcan {

/// Proposal flip probabilities, addressed by absolute bit time relative to
/// the probe frame's EOF start (the same EOF-relative grid the model
/// checker and the paper's figures use) and by role (transmitter = node 0).
struct BiasProfile {
  /// Flip probability outside [win_lo_rel, win_hi_rel].  0 = tail-only
  /// conditioning (see header comment); otherwise usually ber*.
  double base = 0.0;

  /// Tail window, EOF-relative, inclusive.  Resolved against the protocol
  /// by resolve() when lo > hi (the "unset" state).
  int win_lo_rel = 1;
  int win_hi_rel = 0;

  /// Proposal inside the window (floor for every in-window slot).
  double window_q = 2e-3;

  /// Extra-hot slots: the transmitter's last EOF bits (where a flip masks
  /// the receivers' error flag) and the receivers' last-but-one bits
  /// (where a flip splits the receiver set) — the Fig. 3a geometry.
  double tx_hot_q = 0.25;
  std::vector<int> tx_hot;  ///< EOF-relative positions
  double rx_hot_q = 0.03;
  std::vector<int> rx_hot;

  /// Fill unset fields from the protocol: window [-2, window_hi] where
  /// window_hi matches the exhaustive sweeps' auto bound (end-game horizon),
  /// tx_hot = last two EOF bits, rx_hot = the two bits before the last.
  void resolve(const ProtocolParams& protocol);

  /// Proposal probability for one (role, position) slot.  `eof_rel` may be
  /// outside the window (returns base).
  [[nodiscard]] double q(bool transmitter, int eof_rel) const;

  /// Throws std::invalid_argument on probabilities outside [0, 1] or an
  /// unresolved window.
  void validate() const;
};

/// A naive-equivalent profile: proposal == nominal everywhere (all weights
/// exactly 1).  Used by the naive-MC baseline and the unbiasedness tests.
[[nodiscard]] BiasProfile unbiased_profile(const ProtocolParams& protocol,
                                           double ber_star);

/// The importance-sampling injector.  Value-semantic and copyable so the
/// splitting engine can clone a trajectory mid-run together with its
/// likelihood state; the clone's rng must then be re-seeded (fork()).
class BiasedFaults final : public FaultInjector {
 public:
  /// `ber_star` — nominal per-node per-bit probability; `eof_start` — the
  /// absolute bit time of the probe frame's first EOF bit, anchoring the
  /// profile's EOF-relative window.
  BiasedFaults(double ber_star, BiasProfile profile, int eof_start, Rng rng);

  [[nodiscard]] bool flips(NodeId node, BitTime t, const NodeBitInfo& info,
                           Level bus) override;

  /// Account for `draws` Bernoulli draws that were skipped by clean-prefix
  /// cloning or taken from the tail memo: under the proposal they are
  /// forced clean (tail-only base = 0), so each contributes log(1-p) of
  /// likelihood ratio.  Only valid when base == 0 — with a nonzero base the
  /// prefix must actually be simulated.
  void account_clean_prefix(long long draws);

  /// Forced-clean draws so far (made or accounted): the integer count
  /// llr() folds in.
  [[nodiscard]] long long clean_draws() const { return base_clean_; }

  /// Log-likelihood ratio log(dP/dQ) accumulated over all draws so far.
  [[nodiscard]] double llr() const;

  /// Flip counts inside the window, for the splitting engine's levels.
  [[nodiscard]] int window_flips() const { return window_flips_; }
  [[nodiscard]] int tx_window_flips() const { return tx_window_flips_; }
  [[nodiscard]] int rx_window_flips() const {
    return window_flips_ - tx_window_flips_;
  }

  /// Re-seed the rng (splitting clones diverge from their parent here).
  void reseed(Rng rng) { rng_ = rng; }
  [[nodiscard]] Rng fork(std::uint64_t tag) const { return rng_.split(tag); }

 private:
  double p_;            ///< nominal probability
  BiasProfile profile_;
  int eof_start_;
  Rng rng_;
  double llr_ = 0.0;        ///< exact terms (in-window draws)
  long long base_clean_ = 0;///< out-of-window clean draws, folded in llr()
  int window_flips_ = 0;
  int tx_window_flips_ = 0;
};

}  // namespace mcan
