// The fuzzing oracle: one scenario execution, classified.
//
// Every input runs through run_any_scenario (rsm/runner.hpp) — the same
// engine that replays committed .scn files and that mcan-lint checks —
// with the protocol invariant analyzer attached (InvariantScope) and the
// atomic broadcast properties AB1..AB5 evaluated over tagged delivery
// journals (analysis/properties.hpp).  Scenarios carrying an `rsm`
// workload additionally run the consensus stack and are judged by the
// consensus property checkers (rsm/properties.hpp): election safety, log
// matching, state-machine safety and progress.  The verdict is a bitmask
// of violation classes plus the run's coverage signature, so the engine
// gets its bug-or-not answer and its novelty feedback from a single
// execution.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fuzz/signature.hpp"
#include "scenario/dsl.hpp"
#include "util/options.hpp"

namespace mcan {

/// Violation classes, in severity order (primary() picks the first set
/// bit).  The consensus classes lead: an application-level safety break is
/// the end-to-end consequence the link-level classes only foreshadow.
/// Agreement and Validity are the paper's headline wire properties: a
/// MajorCAN_m run within the <= m disturbance envelope must never set
/// either — and with an rsm workload attached, must set none of the four
/// consensus classes either.
enum class FuzzClass : std::uint8_t {
  Election,       ///< two coordinators claimed the same recovery term
  LogDiverge,     ///< two replicas hold different entries at one index
  StateDiverge,   ///< equal applied index, different state digests
  RsmStall,       ///< consensus progress failure: an in-envelope command
                  ///< never committed, or a scheduled recovery never
                  ///< received its snapshot
  AttackSpoof,    ///< a spoofed (never-broadcast) frame was delivered
  AttackBusOff,   ///< an attacker drove a victim controller to bus-off
  AttackGlitch,   ///< targeted glitch flips broke a broadcast property
  Agreement,      ///< AB2: inconsistent message omission
  Validity,       ///< AB1: a correct sender's message was lost everywhere
  Duplicate,      ///< AB3: some node delivered a message twice
  Order,          ///< AB5: two nodes delivered two messages in opposite order
  NonTriviality,  ///< AB4: a delivery that was never broadcast
  Invariant,      ///< bit-level protocol conformance violation
  Timeout,        ///< the bus never quiesced within the step budget
};

inline constexpr int kFuzzClassCount = 14;

[[nodiscard]] const char* fuzz_class_name(FuzzClass c);

[[nodiscard]] constexpr std::uint32_t fuzz_class_bit(FuzzClass c) {
  return 1u << static_cast<int>(c);
}

/// "agreement+duplicate", or "none" for an empty mask.
[[nodiscard]] std::string fuzz_classes_to_string(std::uint32_t mask);

/// Parse a comma-separated class list ("agreement,validity"; "imo" and
/// "double" are accepted as aliases; "none" = empty mask).  Returns false
/// with a message in `error` on an unknown class name.
[[nodiscard]] bool parse_fuzz_classes(const std::string& csv,
                                      std::uint32_t& mask, std::string& error);

/// The CLIs' `--expect-classes` gate: want == 0 demands a clean result,
/// otherwise every class in `want` must be among `found`.  Returns 0 when
/// the gate holds; otherwise prints "<tool>: FAIL: ..." to stderr and
/// returns 1.
[[nodiscard]] int check_class_gate(const char* tool, std::uint32_t want,
                                   std::uint32_t found);

/// The CLIs' `--expect-classes L` flag, writing its mask into `want`.
[[nodiscard]] BoundOption expect_classes_option(
    std::optional<std::uint32_t>& want);

struct FuzzVerdict {
  std::uint32_t classes = 0;  ///< fuzz_class_bit() mask
  Signature sig;
  std::string detail;  ///< human-readable account of the violation(s)

  [[nodiscard]] bool violation() const { return classes != 0; }

  /// Most severe class present; meaningless when classes == 0.
  [[nodiscard]] FuzzClass primary() const;
};

/// Execute one input and classify it.  Deterministic: the same spec always
/// yields the same verdict, on any thread, in any build.
[[nodiscard]] FuzzVerdict run_fuzz_case(const ScenarioSpec& spec);

}  // namespace mcan
