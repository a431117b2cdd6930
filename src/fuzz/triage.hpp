// The triage pipeline: from raw findings to committed-quality reproducers.
//
// A fuzzing campaign reports every violating execution; most are the same
// bug wearing different genomes.  Triage (1) minimizes each finding with
// a ddmin-style greedy reduction — drop flips, traffic frames and the
// crash, shrink the bus — accepting any step that preserves the finding's
// primary violation class; (2) canonicalizes the survivor (sorted flips)
// and dedupes by (class, canonical genome); (3) replay-verifies each
// reproducer by round-tripping it through the .scn writer/parser and
// re-running the oracle on the parsed spec — what gets written to disk is
// proven to reproduce the bug when read back.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/engine.hpp"

namespace mcan {

struct TriagedFinding {
  ScenarioSpec spec;    ///< minimized + canonicalized genome
  FuzzVerdict verdict;  ///< oracle verdict of the minimized genome
  FuzzClass cls{};      ///< the preserved primary class
  std::uint64_t exec_index = 0;  ///< earliest execution showing this bug
  int raw_count = 1;    ///< raw findings collapsed into this reproducer
  bool replay_ok = false;  ///< write -> parse -> run reproduces `cls`
};

/// Canonical dedupe key: class + the genome's canonical .scn text.
[[nodiscard]] std::string finding_key(const ScenarioSpec& spec, FuzzClass cls);

/// ddmin-style greedy minimization to a fixpoint, preserving `cls` among
/// the oracle's classes.  Also canonicalizes (sorts flips).
[[nodiscard]] ScenarioSpec minimize_finding(const ScenarioSpec& spec,
                                            FuzzClass cls);

/// Minimize, dedupe and replay-verify a campaign's raw findings, naming
/// each reproducer <prefix><class>-<hash-of-genome> ("fuzz-" for fuzz and
/// rsm campaigns, "attack-" for attack campaigns).  Output is sorted by
/// (class severity, discovery order).
[[nodiscard]] std::vector<TriagedFinding> triage_findings(
    const std::vector<FuzzFinding>& raw, const std::string& prefix = "fuzz-");

/// Stable reproducer file name: the reproducer's name plus ".scn".
[[nodiscard]] std::string finding_file_name(const TriagedFinding& f);

/// Render the reproducer as lint-clean .scn text with a provenance header.
/// `campaign` names the run for the header (e.g. "seed 7, 2000 execs").
[[nodiscard]] std::string export_finding(const TriagedFinding& f,
                                         const std::string& campaign);

/// Write every reproducer into `dir` (created unless `triaged` is empty),
/// named by finding_file_name().  Returns the paths that could not be
/// written.
[[nodiscard]] std::vector<std::string> write_findings(
    const std::vector<TriagedFinding>& triaged, const std::string& dir,
    const std::string& campaign);

/// Triage + write every reproducer into `dir` (created).  Returns the
/// triaged set (file names follow finding_file_name()).
std::vector<TriagedFinding> export_findings(const std::vector<FuzzFinding>& raw,
                                            const std::string& dir,
                                            const std::string& campaign);

}  // namespace mcan
