// The rare-event campaign runner: empirical estimates of the paper's
// Table-1 probabilities from the executable bit-level bus.
//
// Determinism follows the fuzz engine's plan/execute/merge discipline:
// trial i draws everything from its private Rng(seed, i) stream, workers
// only execute (claiming slots off an atomic counter), and results are
// merged in trial order — so estimates are bit-identical for any --jobs
// value, and identical again across checkpoint/resume (the journal stores
// the streaming accumulators as exact hex floats).
//
// Three estimation modes share the pipeline:
//   naive       unweighted Monte-Carlo from bit 0 (the baseline the
//               variance-reduction factor is measured against);
//   importance  biased tail-window sampling + Horvitz–Thompson weights
//               (src/rare/bias.hpp), clean-prefix cloning, tails from the
//               tail memo (src/scenario/probe.hpp);
//   splitting   multilevel splitting layered on the biased proposal
//               (src/rare/splitting.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/stats.hpp"
#include "rare/splitting.hpp"
#include "rare/trial.hpp"
#include "util/json.hpp"
#include "util/options.hpp"

namespace mcan {

enum class RareMode : std::uint8_t { kNaive, kImportance, kSplitting };

[[nodiscard]] const char* rare_mode_name(RareMode m);

struct RareConfig {
  ProtocolParams protocol = ProtocolParams::standard_can();
  int n_nodes = 32;           ///< the reference bus of Table 1
  double ber = 1e-5;          ///< network-wide rate; per-node is ber/N
  RareMode mode = RareMode::kImportance;
  BiasProfile bias;           ///< window/proposal; defaults resolved per protocol
  SplitParams split;          ///< splitting mode only
  std::uint64_t seed = 1;
  long long trials = 20000;   ///< root trials (splitting counts roots)
  int jobs = 1;               ///< worker threads; 0 = one per hardware thread
  int batch = 256;            ///< trials per plan/execute/merge round
  BitTime quiet_budget = kProbeQuietBudget;
  double bitrate = 1e6;       ///< reference bus, for the per-hour conversion
  double load = 0.9;
  std::string journal;            ///< checkpoint file; empty = no checkpoints
  long long checkpoint_every = 8192;  ///< trials between journal snapshots
  /// Progress callback (trials done, trials total); called after each round.
  std::function<void(long long, long long)> on_progress;
  /// Cooperative stop: when set, the campaign finishes the round in
  /// flight, flushes a final journal snapshot, and returns the partial
  /// result.  Safe to flip from a signal handler.
  const std::atomic<bool>* stop = nullptr;

  /// Throws std::invalid_argument on unusable values.
  void validate() const;

  /// Everything that determines the trial stream, as text.  A journal
  /// snapshot is only resumable into a campaign with an equal fingerprint.
  [[nodiscard]] std::string fingerprint() const;
};

struct RareResult {
  RareConfig cfg;        ///< as run (bias resolved)
  ProbePlan plan;        ///< probe frame geometry actually simulated
  RareAccumulator imo;   ///< P{inconsistent message omission} per frame
  RareAccumulator dup;   ///< P{inconsistent duplicate} per frame
  long long timeouts = 0;
  long long resumed_from = 0;  ///< trials restored from the journal
  double seconds = 0;
  int jobs_used = 1;
  /// How the tail memo served this process's trials (importance mode).
  /// Run-local, like `seconds`, but never serialized: not in to_json(),
  /// checkpoints or journals.
  TailMemoStats tail_memo;

  [[nodiscard]] RareEstimate imo_estimate() const { return imo.estimate(); }
  [[nodiscard]] RareEstimate dup_estimate() const { return dup.estimate(); }

  /// Expression (4) evaluated at the *simulated* geometry: same N, same
  /// ber, tau = the probe frame's wire length — the closed form this
  /// campaign cross-validates.
  [[nodiscard]] double closed_form_p4() const;

  /// Frames/hour of the reference bus at the simulated frame length.
  [[nodiscard]] double frames_per_hour() const;

  /// Per-sample variance of a naive 0/1 estimator at our p_hat, divided by
  /// the measured per-trial variance: how many times fewer trials this
  /// campaign needs than naive Monte-Carlo for equal error bars.
  [[nodiscard]] double variance_reduction() const;

  /// Naive trials needed to match this campaign's standard error.
  [[nodiscard]] double naive_trials_equivalent() const;

  [[nodiscard]] std::string summary() const;
  [[nodiscard]] std::string to_json() const;
};

// ---------------------------------------------------------------------------
// Round-stepped campaign: the plan/execute/merge loop as an object.
//
// run_campaign() is a thin driver over this class; the campaign
// orchestration service (src/serve/) drives the same object with its
// worker fleet.  execute_slot(i) is pure per slot (trial i draws only from
// its private Rng(seed, i) stream), so any set of threads may run any
// subset of slots, in any order, even more than once — which is what lets
// a dead worker's shard be requeued without perturbing the estimate.
// ---------------------------------------------------------------------------
class RareCampaign {
 public:
  /// Validates the config and resolves the bias profile (throws
  /// std::invalid_argument like run_campaign does).
  explicit RareCampaign(const RareConfig& cfg);

  /// Config as resolved (bias defaults filled in, fingerprint stable).
  [[nodiscard]] const RareConfig& config() const { return cfg_; }
  [[nodiscard]] const ProbePlan& probe_plan() const { return plan_; }

  /// Plan the next round of trials; returns the slot count (0 = target
  /// trial count reached, or cfg.stop raised).
  [[nodiscard]] std::size_t plan_round();

  /// Execute planned slot `i` (thread-safe across distinct — or even
  /// repeated — slot indices).
  void execute_slot(std::size_t i);

  /// Fold the executed round into the accumulators, in trial order.
  void merge_round();

  [[nodiscard]] bool finished() const;
  [[nodiscard]] long long trials_done() const { return done_; }
  [[nodiscard]] long long resumed_from() const { return resumed_from_; }

  /// Tail-memo hits, misses and entries so far (all zero outside
  /// importance mode).
  [[nodiscard]] TailMemoStats tail_memo_stats() const {
    return memo_.stats();
  }

  /// One journal snapshot line ("snap ..."), exact to the bit (hex-float
  /// accumulators) — the checkpoint discipline the serve job journal
  /// reuses.  restore_checkpoint_line() is the inverse; false on a
  /// malformed line.
  [[nodiscard]] std::string checkpoint_line() const;
  [[nodiscard]] bool restore_checkpoint_line(const std::string& line);

  /// The result so far (cfg/plan/accumulators; the run_campaign driver
  /// adds wall-clock seconds and the worker count).
  [[nodiscard]] RareResult result() const;

 private:
  struct Slot {
    long long index = 0;
    double x_imo = 0;
    double x_dup = 0;
    long long timeouts = 0;
  };

  RareConfig cfg_;
  ProbePlan plan_;
  std::optional<PrefixState> prefix_;
  TailMemo memo_;  ///< shared by every thread executing slots
  std::vector<Slot> slots_;
  long long done_ = 0;
  long long resumed_from_ = 0;
  RareAccumulator imo_;
  RareAccumulator dup_;
  long long timeouts_ = 0;
};

/// The engine's options, declared once: mcan-rare parses argv through
/// them, mcan-client builds "rare" job specs from the keyed ones, and the
/// serve backend decodes specs through them.  The bus size defaults to
/// RareConfig's 32, the Table-1 bus.
[[nodiscard]] const OptionTable<RareConfig>& rare_options();

/// The rare-event CI gates of mcan-rare and mcan-client.
struct RareGate {
  double within = 0;  ///< --expect-within X; 0 = off
  double rel_ci = 0;  ///< --expect-rel-ci X; 0 = off
};

/// --expect-within and --expect-rel-ci.
[[nodiscard]] const OptionTable<RareGate>& rare_gate_options();

/// Check `gate` against the IMO estimate `imo` and expression (4) = `p4`.
/// --expect-within is CI-aware: it holds if any point of [ci_lo, ci_hi]
/// lies within a factor X of p4.  --expect-rel-ci holds if the estimate
/// has hits and its relative CI half-width is at most X.  Returns 0 when
/// every active gate holds; otherwise prints "<tool>: FAIL ..." to stderr
/// and returns 1.
[[nodiscard]] int check_rare_gate(const char* tool, const RareGate& gate,
                                  const RareEstimate& imo, double p4);

/// The gate's inputs read back from RareResult::to_json() output: the
/// "imo" estimate and "closed_form_p4".  False when there is no "imo"
/// object.
[[nodiscard]] bool rare_gate_inputs(const Json& result, RareEstimate& imo,
                                    double& p4);

/// Run (or resume) a campaign.  If cfg.journal names an existing file, the
/// last snapshot is restored — its fingerprint must match — and the run
/// continues toward cfg.trials (a no-op if the journal already covers it).
[[nodiscard]] RareResult run_campaign(const RareConfig& cfg);

/// Restore a result (without running anything) from a journal file.
/// Throws std::runtime_error on a missing/corrupt journal or a fingerprint
/// mismatch against cfg.
[[nodiscard]] RareResult load_campaign(const RareConfig& cfg);

}  // namespace mcan
