// Scenario runner for consensus workloads: the bridge between the .scn DSL
// and the RSM subsystem.
//
// A scenario carrying an `rsm` directive replaces the probe frame with a
// replicated-state-machine workload: round-robin command proposals, an
// optional host crash + rejoin, all over the scenario's link (the
// protocol variant directly, or EDCAN/RELCAN/TOTCAN above standard CAN).
// Scripted flips and the controller crash apply exactly as in
// run_scenario, so the same fault vocabulary that breaks a single probe
// frame can be aimed at a consensus run — and the result now includes the
// consensus verdict next to the link-level one.
//
// `expect` semantics on RSM scenarios: `consistent` means the consensus
// checkers come back clean; `imo` (and `double`) mean an application-level
// consistency violation was found.  Liveness is asserted only when the run
// quiesced *inside the fault envelope* — MajorCAN with at most m end-game
// flips and no controller crash, or a fault-free CAN/MinorCAN run.  A host
// crash/recovery is part of the model, not a fault.
#pragma once

#include "analysis/invariants.hpp"
#include "rsm/cluster.hpp"
#include "rsm/properties.hpp"
#include "scenario/dsl.hpp"

namespace mcan {

struct RsmRunResult {
  DslRunResult base;           ///< link-level verdicts, shaped as ever
  RsmReport rsm;               ///< the consensus property report
  bool within_envelope = false;
};

/// True when the scenario's faults stay inside the protocol's tolerance
/// envelope: MajorCAN with at most m total end-game flips (eof=/eofrel=
/// forms only) and no controller crash; any other variant only fault-free.
/// Host crash/recovery in the workload does not leave the envelope.
[[nodiscard]] bool rsm_within_envelope(const ScenarioSpec& spec);

/// Run the consensus workload (spec.rsm, defaulted if absent).  Throws
/// std::invalid_argument when spec.n_nodes exceeds 8 — membership and
/// voter sets travel as byte-wide bitmaps.
[[nodiscard]] RsmRunResult run_rsm_scenario(const ScenarioSpec& spec,
                                            const InvariantConfig& inv = {});

/// Dispatch: run_rsm_scenario(...).base for RSM scenarios, run_scenario
/// otherwise — so linting and replay tools handle any .scn uniformly.
/// `trace` is run_scenario's opt-in; RSM runs render no trace.
[[nodiscard]] DslRunResult run_any_scenario(const ScenarioSpec& spec,
                                            const InvariantConfig& inv = {},
                                            bool trace = false);

}  // namespace mcan
