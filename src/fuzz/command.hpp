// The fuzz engine's commands, shared by every front end that runs them:
// `mcan-fuzz run`, `mcan-rsm fuzz` and `mcan-attack fuzz` are one campaign
// command over a FuzzJob of their kind, and their `replay` commands are
// one replay command.
//
// Exit status, in this order: 2 when the stats file or a reproducer could
// not be written, 130 when the stop flag ended the campaign early, 1 when
// an exported reproducer failed replay, then the --expect-classes gate (1
// on a miss), else 0.  Everything that can be written is written first, so
// an interrupted campaign still leaves its stats, corpus and findings
// behind.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/engine.hpp"
#include "fuzz/triage.hpp"

namespace mcan {

/// What a campaign command does with its result.
struct FuzzCommand {
  std::string corpus_dir;    ///< seed from + save the corpus ("" = none)
  std::string findings_dir;  ///< reproducers go here
  std::string stats_json;    ///< campaign stats file ("" = none)
  std::optional<std::uint32_t> expect_classes;  ///< the class gate
  bool progress = true;      ///< live meter on stderr
};

/// --corpus, --findings and --stats-json.
[[nodiscard]] const OptionTable<FuzzCommand>& fuzz_command_options();

/// Run `job` (resolved here; cfg.jobs and cfg.stop as the caller set them)
/// and report it: one summary line, the triaged reproducers named by the
/// kind ("attack-" for attack campaigns, "fuzz-" otherwise), the saved
/// corpus and the stats JSON.  `tool` prefixes every message.
[[nodiscard]] int run_fuzz_command(const char* tool, FuzzJob job,
                                   const FuzzCommand& cmd);

/// Write `triaged` into `dir` and print one line per reproducer.  Returns
/// 2 when a reproducer could not be written, else 1 when one failed
/// replay, else 0.
[[nodiscard]] int export_triaged(const char* tool,
                                 const std::vector<TriagedFinding>& triaged,
                                 const std::string& dir,
                                 const std::string& campaign);

/// Run each .scn file (directories: their *.scn files) through the oracle
/// and print its classes, then apply the `want` gate.  Returns 130 when
/// `stop` is raised before every file ran.
[[nodiscard]] int run_replay_command(const char* tool,
                                     const std::vector<std::string>& inputs,
                                     std::optional<std::uint32_t> want,
                                     const std::atomic<bool>* stop = nullptr);

}  // namespace mcan
