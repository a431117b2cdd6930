// A small text language for disturbance scenarios, so experiments can live
// as data files (scenarios/*.scn) and be replayed by the trace explorer:
//
//     # Fig 3a: the paper's new scenario
//     protocol can            # can | minor | major <m>
//     nodes 5
//     frame id=0x100 dlc=4
//     traffic id=0x200 dlc=4 node=1   # optional extra frames (traffic mix)
//     flip node=1 eof=5       # 0-based EOF bit of that node's view
//     flip node=2 eof=5
//     flip node=0 eof=6
//     crash node=0 t=75       # optional, absolute bit time
//     expect imo              # imo | consistent | double | any
//
// Addressing forms for `flip`: eof=<pos> [frame=<k>], eofrel=<pos>
// [frame=<k>], body=<wire-bit> [frame=<k>], t=<absolute-bit>.
//
// Adversarial attackers (attack/attack.hpp) are scripted with `attack`
// directives — targeted disturbances instead of scripted single flips:
//
//     attack glitch victim=1 pos=5 span=2 budget=2 frame=0 when=any
//     attack glitch victim=0 start=57 span=3 budget=3 when=any
//     attack busoff victim=0 budget=40 start=0
//     attack spoof attacker=2 as=0 seq=900 id=0x80 dlc=4 count=1
//
// The format is round-trippable: write_scenario() renders a ScenarioSpec
// back to text that parse_scenario() reads to an equal spec.  Everything
// that exports .scn files (the model checker's minimizer, the fuzzer's
// triage pipeline) goes through that one writer.
#pragma once

#include <string>

#include "analysis/invariants.hpp"
#include "analysis/properties.hpp"
#include "attack/attack.hpp"
#include "scenario/figures.hpp"

namespace mcan {

enum class Expectation { Any, Consistent, Imo, Double };

/// One extra frame in the traffic mix, enqueued at its sender before the
/// bus starts (arbitration interleaves it with the probe frame).
struct TrafficFrame {
  std::uint32_t id = 0x200;
  std::uint8_t dlc = 4;
  NodeId sender = 1;

  [[nodiscard]] bool operator==(const TrafficFrame&) const = default;
};

/// A consensus workload riding on a scenario (the `rsm` directive): run a
/// replicated state machine over the scenario's link instead of the probe
/// frame, and judge the run with the consensus property checkers
/// (src/rsm/).  Kept as a plain value here so the DSL stays independent of
/// the rsm library; src/rsm/runner.hpp interprets it.
///
///   rsm commands=3 payload=4 k=2 spacing=0 link=direct
///   rsm commands=4 k=2 crash=1 crasht=2000 recovert=9000
struct RsmWorkload {
  int commands = 3;       ///< proposals, round-robin across nodes
  int payload = 4;        ///< bytes per command (register op encoding)
  int k = 2;              ///< commit threshold (distinct voters)
  BitTime spacing = 0;    ///< bit-time gap between successive proposals
  int link = 0;           ///< 0 direct, 1 edcan, 2 relcan, 3 totcan
  int crash_node = -1;    ///< host (application) crash; -1 = none
  BitTime crash_t = 0;    ///< host crash time, absolute bits
  BitTime recover_t = 0;  ///< restart + rejoin time; 0 = never

  [[nodiscard]] bool operator==(const RsmWorkload&) const = default;
};

struct ScenarioSpec {
  std::string name;
  ProtocolParams protocol;
  int n_nodes = 5;
  std::uint32_t frame_id = 0x100;
  std::uint8_t frame_dlc = 4;
  std::vector<TrafficFrame> traffic;  ///< extra frames beyond the probe
  std::vector<FaultTarget> flips;
  std::vector<AttackSpec> attacks;  ///< attacker models (attack directive)
  std::optional<std::pair<NodeId, BitTime>> crash;
  std::optional<RsmWorkload> rsm;  ///< consensus workload (rsm directive)
  Expectation expect = Expectation::Any;

  [[nodiscard]] bool operator==(const ScenarioSpec&) const = default;
};

/// Clamp a workload into the range every consumer (runner, fuzzer, serve
/// backend) agrees is runnable on `n_nodes` replicas: command counts and
/// payload sizes the snapshot tail can always carry, a commit threshold
/// within the membership, crash/recovery times in causal order.  Shared
/// here so the fuzz mutator and the rsm runner cannot drift apart.
[[nodiscard]] RsmWorkload sanitize_rsm_workload(RsmWorkload w, int n_nodes);

/// Parse the DSL; throws std::invalid_argument with a line-numbered message
/// on syntax errors.
[[nodiscard]] ScenarioSpec parse_scenario(const std::string& text);

/// Load and parse a scenario file.
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

/// Command-line inputs as scenario files: each directory contributes its
/// *.scn files in name order, anything else is taken as a file.
[[nodiscard]] std::vector<std::string> scenario_files(
    const std::vector<std::string>& paths);

/// Presentation options for write_scenario: free-text comment lines for
/// the file header and per-flip trailing comments (both without the
/// leading "# "; entries beyond spec.flips.size() are ignored).
struct ScenarioWriteOptions {
  std::vector<std::string> header;
  std::vector<std::string> flip_comments;
};

/// Render `spec` as .scn text.  parse_scenario(write_scenario(s)) == s for
/// every valid spec (comments are presentation only).
[[nodiscard]] std::string write_scenario(const ScenarioSpec& spec,
                                         const ScenarioWriteOptions& opts = {});

struct DslRunResult {
  ScenarioOutcome outcome;
  bool expectation_met = true;
  std::string expectation_text;
  InvariantReport invariants;  ///< protocol conformance of the whole run
  bool quiesced = true;        ///< false: the bus never went quiet (timeout)
  /// AB1..AB5 over tagged journals: senders journal their broadcasts at
  /// TxSuccess, receivers at delivery; a crashed node is excluded from the
  /// correct set.  This is the fuzzing oracle's consistency verdict — it
  /// stays meaningful with traffic mixes and crashes, where the legacy
  /// delivery-count expectations (imo/double) only describe the probe.
  AbReport ab;
  /// What the scripted attackers did (empty report without attacks).
  AttackReport attack;
};

/// Run the scenario and evaluate its `expect` clause.  Every run is also
/// watched by an InvariantChecker; its report lands in the result (pass a
/// config to tune or disable individual rules).  The per-bit trace is
/// opt-in: only with `trace` set is it recorded and rendered into
/// `outcome.trace` (otherwise that stays empty); every other field of the
/// result is the same either way.  Scenarios carrying an `rsm` workload
/// are rejected with std::invalid_argument — run those through
/// run_rsm_scenario / run_any_scenario (src/rsm/runner.hpp), which layer
/// the consensus stack this runner knows nothing about.
[[nodiscard]] DslRunResult run_scenario(const ScenarioSpec& spec,
                                        const InvariantConfig& inv = {},
                                        bool trace = false);

}  // namespace mcan
