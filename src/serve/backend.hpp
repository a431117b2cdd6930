// Campaign backends: the job server's view of the engines it drives.
//
// The fuzz, rare-event and model-check engines all run the same
// plan/execute/merge round discipline (fuzz/engine.hpp explains why that
// makes worker count irrelevant to results).  A CampaignBackend exposes
// exactly that loop, plus a checkpoint/restore pair and a deterministic
// result rendering, so the scheduler (serve/queue.hpp) can drive any
// campaign kind with one code path:
//
//   * plan_round()/merge_round() are called only from the scheduler's
//     sequential sections (under the manager lock);
//   * execute_slot(i) is called from worker threads, any subset of slots
//     in any order, possibly more than once — engines guarantee slot
//     execution is pure per slot, which is what makes a dead worker's
//     shard requeueable;
//   * checkpoint() is a single line of text capturing everything merged
//     so far, exact to the bit (the rare journal's hex-float discipline);
//     restore() is its inverse.  A backend that cannot snapshot
//     mid-campaign (model check) returns "" and restarts on resume;
//   * result_json() renders the finished campaign with deterministic
//     bytes: wall-clock fields are zeroed, so two runs of the same spec —
//     any worker count, killed and resumed or not — compare equal with
//     plain string equality.  Wall-clock telemetry lives in the stats
//     endpoint instead.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/proto.hpp"
#include "util/options.hpp"

namespace mcan {

class CampaignBackend {
 public:
  virtual ~CampaignBackend() = default;

  /// "fuzz", "rsm", "attack", "rare" or "check".
  [[nodiscard]] virtual const char* kind() const = 0;

  /// Canonical identity of the campaign: the spec with every default
  /// resolved, dumped deterministically.  A journal snapshot is only
  /// restored into a backend with an equal fingerprint.
  [[nodiscard]] virtual std::string fingerprint() const = 0;

  /// Plan the next round; returns the slot count (0 = campaign over).
  [[nodiscard]] virtual std::size_t plan_round() = 0;

  /// Execute planned slot `i` (worker threads; idempotent per slot).
  virtual void execute_slot(std::size_t i) = 0;

  /// Fold the executed round into campaign state, in slot order.
  virtual void merge_round() = 0;

  [[nodiscard]] virtual bool finished() const = 0;

  /// Progress in backend units (execs / trials / sweep units).
  [[nodiscard]] virtual std::uint64_t units_done() const = 0;
  [[nodiscard]] virtual std::uint64_t units_total() const = 0;

  /// Preferred slots-per-shard; 0 = take the server default.  Backends
  /// with coarse slots (a model-check sweep unit is a whole run) hint 1
  /// so the worker fleet can spread a round at all.
  [[nodiscard]] virtual std::size_t shard_size_hint() const { return 0; }

  /// One-line snapshot of all merged state; "" when unsupported.
  [[nodiscard]] virtual std::string checkpoint() const = 0;

  /// Inverse of checkpoint(); false on a malformed payload.  Only called
  /// before the first plan_round().
  [[nodiscard]] virtual bool restore(const std::string& payload) = 0;

  /// Final result as JSON with deterministic bytes (call once, after
  /// finished()).
  [[nodiscard]] virtual std::string result_json() = 0;
};

/// Build a backend from a submitted job spec:
///
///   {"backend": "fuzz",  "protocol": "major:5", "nodes": 3, "seed": 1,
///    "max_execs": 2000, "batch": 64, "minimize_every": 2048,
///    "envelope": false, "max_flips": 8, "mutate_protocol": false}
///   {"backend": "attack", "protocol": "major:5", "nodes": 3, "seed": 1,
///    "max_execs": 2000, "max_attacks": 2, "attack_budget": 4,
///    "allow_spoof": true, "allow_busoff": true}
///   {"backend": "rare",  "protocol": "can", "nodes": 32, "ber": 1e-5,
///    "mode": "importance", "seed": 1, "trials": 20000, "batch": 256}
///   {"backend": "check", "protocols": ["can", "major:5"], "max_k": 2,
///    "nodes": 3, "budget": 0}
///
/// The keys are the keyed options of the kind's engine table
/// (fuzz_options, rare_options, check_sweep_options; docs/SERVING.md lists
/// them); every one except "backend" has the engine's default.  Returns
/// nullptr with a message in `error` on an unknown backend, an unknown
/// key, or a value of the wrong type or out of range (the message names
/// the key).
[[nodiscard]] std::unique_ptr<CampaignBackend> make_backend(
    const Json& spec, std::string& error);

/// The job kinds make_backend accepts: fuzz, rsm, attack, rare, check.
[[nodiscard]] const std::vector<std::string>& backend_kinds();

/// Command-line flags for the spec keys of job kind `kind` (mcan-client
/// submit): each writes its key into `spec`.  Empty for an unknown kind.
[[nodiscard]] BoundOptions spec_options(const std::string& kind, Json& spec);

}  // namespace mcan
