// Bounded exhaustive verification — the "model checking" the paper left as
// future work, done on the executable protocol model.
//
// For a given protocol, node count and error budget k, enumerate *every*
// combination of k view-flips over the (node x frame-tail-bit) grid, run
// the bus to quiescence, and classify the outcome.  Within the paper's
// scenario space this is complete: if no pattern up to k errors violates
// agreement / at-most-once, none exists (for that bus size and window).
//
// Standard CAN and MinorCAN produce concrete counterexample sets (the
// Fig. 1b/3a patterns fall out automatically); MajorCAN_m must produce
// none up to k = m.
//
// run_exhaustive() is the reference single-threaded enumerator with a
// deterministic (lexicographic) visit order; the scalable engine with
// parallelism, tail memoization and symmetry reduction lives in
// scenario/model_check.hpp and is verified against this one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "util/bit.hpp"

namespace mcan {

struct ExhaustiveConfig {
  ProtocolParams protocol;
  int n_nodes = 3;
  int errors = 2;      ///< exact number of flips per case
  /// Window of EOF-relative positions to flip, inclusive on both ends.
  /// Default [-4, auto] covers the tail, the EOF and the whole end-game.
  int win_lo_rel = -4;
  /// Upper window bound; disengaged = auto: 3m+5 for MajorCAN (covers the
  /// whole end-game), EOF + intermission for the others.
  std::optional<int> win_hi_rel;

  /// The effective upper bound (resolves the auto default).
  [[nodiscard]] int window_hi() const;

  /// Throws std::invalid_argument on an unusable configuration: a window
  /// check_probe_window() (scenario/probe.hpp) rejects, or degenerate
  /// node/error counts.
  void validate() const;
};

struct Counterexample {
  std::vector<std::pair<NodeId, int>> flips;  ///< (node, EOF-relative pos)
  std::string outcome;                        ///< e.g. "IMO: deliveries 0 1"

  [[nodiscard]] std::string to_string() const;
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

/// Run the full enumeration with the reference semantics: the model
/// checker (scenario/model_check.hpp) with every reduction off, one thread.
/// `max_examples` bounds how many concrete counterexamples are kept for
/// reporting.
[[nodiscard]] ModelCheckResult run_exhaustive(const ExhaustiveConfig& cfg,
                                              int max_examples = 5);

}  // namespace mcan
