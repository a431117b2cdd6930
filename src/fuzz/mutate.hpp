// The mutation engine: bounded perturbation of scenario genomes.
//
// A fuzz input is a ScenarioSpec (scenario/dsl.hpp) — the same structure
// committed .scn files parse to, so every corpus entry and finding is a
// replayable data file by construction.  Mutators perturb the flip
// pattern (add / drop / move / retarget, EOF-relative end-game positions
// and body wire bits), fault timing, frame identity and payload size, the
// traffic mix, the node count, a scheduled crash, and — when enabled —
// the protocol parameters themselves, always inside
// ProtocolParams::validate() bounds.  sanitize() re-establishes every
// bound after a mutation so any mutated genome is a valid scenario.
#pragma once

#include "scenario/dsl.hpp"
#include "util/rng.hpp"

namespace mcan {

/// Mutation bounds.  The defaults open the whole scenario space the
/// simulator supports; envelope() narrows them to the claim the paper
/// makes.
struct FuzzBounds {
  int min_nodes = 2;
  int max_nodes = 8;
  int max_flips = 8;    ///< flips per input
  int max_traffic = 3;  ///< extra frames per input
  int win_lo = -4;      ///< EOF-relative window low bound (tail of the frame)
  bool allow_body = true;    ///< body wire-bit flips (CRC/stuffing space)
  bool allow_crash = true;   ///< scheduled node crashes
  bool allow_traffic = true; ///< traffic-mix mutations
  int max_attacks = 0;       ///< attack directives per input (0 = off; the
                             ///< default keeps legacy campaigns byte-stable)
  int attack_budget = 4;     ///< total glitch flip budget across attackers
  bool allow_spoof = true;   ///< spoof attackers when attacks are on
  bool allow_busoff = true;  ///< bus-off attackers when attacks are on
  bool mutate_nodes = true;  ///< node-count mutations
  bool mutate_protocol = false;  ///< variant / m drift (off: gates stay
                                 ///< about one protocol)
  int max_m = 7;  ///< MajorCAN tolerance cap under protocol mutation

  /// These bounds inside the paper's <= m disturbance envelope for `p`
  /// (the --envelope switch of every fuzz front end): the claim is about
  /// frame-tail disturbances with a fixed set of live nodes, so flips are
  /// capped at the protocol's tolerance (m for MajorCAN_m; the classic
  /// variants tolerate none, but a cap below 2 would leave nothing to
  /// search), body flips and crashes are off (fail-silence is a separate
  /// fault hypothesis) and the protocol stays fixed.  Without it the
  /// fuzzer shows that a single mid-frame body flip defeats even MajorCAN
  /// (the corrupted receiver accepts by majority but has no intact frame
  /// to deliver); see docs/FUZZING.md.
  [[nodiscard]] FuzzBounds envelope(const ProtocolParams& p) const;

  [[nodiscard]] bool operator==(const FuzzBounds&) const = default;
};

/// Upper EOF-relative flip bound for `p` (the model checker's end-game
/// window: 3m+5 for MajorCAN, EOF + intermission otherwise).
[[nodiscard]] int fuzz_window_hi(const ProtocolParams& p);

/// Wire bits of the probe frame before its EOF (the body-flip range).
[[nodiscard]] int fuzz_body_bits(const ScenarioSpec& spec);

/// The clean starting genome: one probe frame, no disturbances.
[[nodiscard]] ScenarioSpec seed_scenario(const ProtocolParams& p, int n_nodes);

/// Clamp `spec` into `b`'s bounds (node references, window positions,
/// flip/traffic counts, distinct frame ids, valid protocol).
void sanitize_scenario(ScenarioSpec& spec, const FuzzBounds& b);

/// True iff `spec` already satisfies the bounds (corpus-load validation
/// and tests).
[[nodiscard]] bool scenario_in_bounds(const ScenarioSpec& spec,
                                      const FuzzBounds& b);

/// Derive a child genome: 1..3 stacked mutations + sanitize.  Deterministic
/// in (parent, rng state).
[[nodiscard]] ScenarioSpec mutate_scenario(const ScenarioSpec& parent,
                                           const FuzzBounds& b, Rng& rng);

}  // namespace mcan
