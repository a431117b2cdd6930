// Kernel selection: which bit-engine executes a Simulator.
//
// Two kernels exist.  The *reference* kernel (Simulator::step_reference) is
// the specification: a plain per-bit loop over every participant.  The
// *fast* kernel (src/sim/fast/) is an optimization of the same semantics —
// symmetry-grouped receivers, event-skipping over disturbance-free
// stretches, word-batched body replay — certified bit-identical by the
// simfast differential suite.  Selection is a process-global default read
// by Network's constructor, so every engine that builds buses through
// Network (scenario runner, fuzzer, rare-event trials, model checker, rsm,
// attack sweeps, serve backends) inherits one `--kernel {ref,fast}` flag.
#pragma once

#include <optional>
#include <string>

#include "util/options.hpp"

namespace mcan {

enum class KernelKind : int {
  Ref,   ///< reference per-bit loop (the specification)
  Fast,  ///< event-skipping batched kernel (certified identical)
};

/// The process-global kernel default (initially Ref).  Thread-safe reads;
/// set it once at CLI-parse time, before any bus is built.
[[nodiscard]] KernelKind default_kernel();
void set_default_kernel(KernelKind k);

/// "ref" / "fast".
[[nodiscard]] const char* kernel_name(KernelKind k);

/// Parse a --kernel value; nullopt on anything but "ref"/"fast".
[[nodiscard]] std::optional<KernelKind> parse_kernel_name(
    const std::string& token);

/// The --kernel flag.  It sets the process default as it is parsed, so
/// every bus the process builds through Network — campaign workers
/// included — inherits the selection.
[[nodiscard]] BoundOption kernel_option();

}  // namespace mcan
