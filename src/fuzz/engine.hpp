// The fuzzing engine: coverage-guided search over scenario space.
//
// Determinism is the design constraint.  Every campaign is reproducible
// from (seed, max_execs) on any machine with any --jobs value, because
// randomness is never shared between executions: execution i draws all of
// its decisions from its own Rng(seed, i) stream ((seed, seq) PCG32
// streams, util/rng.hpp).  The loop is round-based:
//
//   1. plan   (sequential)  — for each slot of the round, select a parent
//                             from the frozen corpus and mutate it, using
//                             that slot's private stream;
//   2. execute (parallel)   — run every planned input through the oracle;
//                             workers claim slots off an atomic counter
//                             and touch nothing shared but their slot;
//   3. merge  (sequential)  — in slot order: update stats, admit novel
//                             inputs, record findings.
//
// Because the corpus is read-only between plan and merge, thread count
// changes only wall-clock time, never results — asserted by
// tests/determinism_test.cpp.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/oracle.hpp"
#include "util/options.hpp"

namespace mcan {

struct FuzzStats {
  std::uint64_t execs = 0;
  std::uint64_t admitted = 0;     ///< inputs that entered the corpus
  std::uint64_t findings = 0;     ///< executions with a non-empty class mask
  std::uint64_t evicted = 0;      ///< entries dropped by periodic minimize()
  std::uint32_t classes_seen = 0; ///< union of fuzz_class_bit() masks
  int corpus_size = 0;
  int signature_bits = 0;  ///< accumulated coverage map popcount
  int fsm_transitions = 0; ///< FSM slice of the accumulated map
  double elapsed_s = 0;    ///< wall clock (informational; not replayed)
};

struct FuzzFinding {
  ScenarioSpec spec;
  FuzzVerdict verdict;
  std::uint64_t exec_index = 0;
};

struct FuzzConfig {
  ProtocolParams protocol;
  int n_nodes = 3;
  std::uint64_t seed = 1;
  std::uint64_t max_execs = 2000;
  double max_time_s = 0;  ///< wall-clock budget; 0 = none.  A time-capped
                          ///< run is reproducible only in what it DID
                          ///< explore: execution i is identical across
                          ///< runs, but where the run stops is not.
  int jobs = 1;           ///< worker threads; 0 = one per hardware thread
  int batch = 64;         ///< executions per round
  FuzzBounds bounds;
  /// Consensus workload: when set, every planned input (seed round
  /// included) carries this rsm directive — re-sanitized against the
  /// mutated node count — so the whole campaign fuzzes the consensus
  /// stack and the four rsm violation classes are live.  The mutator
  /// itself never drops or edits the workload; the disturbance genome is
  /// what evolves.
  std::optional<RsmWorkload> workload;
  std::uint64_t minimize_every = 2048;  ///< corpus minimize period, in execs
  /// Called after each round with a stats snapshot (progress meters).
  std::function<void(const FuzzStats&)> on_round;
  /// Cooperative stop: when set, the campaign finishes the round in flight
  /// and returns the partial (still fully deterministic) result.  Safe to
  /// flip from a signal handler.
  const std::atomic<bool>* stop = nullptr;
};

struct FuzzResult {
  FuzzStats stats;
  Corpus corpus;
  std::vector<FuzzFinding> findings;  ///< raw, un-triaged (see fuzz/triage.hpp)
};

/// Run a campaign.  `seeds` joins the implicit clean seed_scenario() as
/// round zero; all seeds are sanitized into cfg.bounds first.
[[nodiscard]] FuzzResult run_fuzz(const FuzzConfig& cfg,
                                  const std::vector<ScenarioSpec>& seeds = {});

// ---------------------------------------------------------------------------
// Round-stepped campaign: the plan/execute/merge loop as an object.
//
// run_fuzz() is a thin driver over this class; the campaign orchestration
// service (src/serve/) drives the same object with its worker fleet.  The
// contract that makes both produce bit-identical results:
//
//   * plan_round() is sequential and plans the next batch of slots;
//   * execute_slot(i) is pure per slot — it reads the frozen corpus and
//     writes only slot i, so any set of threads may run any subset of
//     slots, in any order, even more than once (idempotent re-execution is
//     what lets a dead worker's shard be requeued without a determinism
//     penalty);
//   * merge_round() is sequential and folds the slots in slot order.
// ---------------------------------------------------------------------------
class FuzzCampaign {
 public:
  explicit FuzzCampaign(const FuzzConfig& cfg,
                        const std::vector<ScenarioSpec>& seeds = {});

  /// Plan the next round; returns the number of slots (0 = campaign over:
  /// budget exhausted, out of time, or cfg.stop raised).  Round zero is
  /// the clean seed scenario plus every constructor-provided seed.
  [[nodiscard]] std::size_t plan_round();

  /// Execute planned slot `i` (thread-safe across distinct — or even
  /// repeated — slot indices; the corpus is frozen during a round).
  void execute_slot(std::size_t i);

  /// Fold the executed round into the campaign state, in slot order.
  void merge_round();

  [[nodiscard]] bool finished() const;
  [[nodiscard]] const FuzzConfig& config() const { return cfg_; }
  [[nodiscard]] const FuzzStats& stats() const { return res_.stats; }
  [[nodiscard]] std::uint64_t exec_index() const { return exec_index_; }
  [[nodiscard]] std::uint64_t next_minimize() const { return next_minimize_; }
  [[nodiscard]] const Corpus& corpus() const { return res_.corpus; }
  [[nodiscard]] const std::vector<FuzzFinding>& findings() const {
    return res_.findings;
  }

  /// Restore a checkpointed campaign (see serve/backend.cpp for the
  /// serialization): the engine continues exactly as if it had just merged
  /// the round that produced the snapshot.
  void restore_state(std::uint64_t exec_index, std::uint64_t next_minimize,
                     const FuzzStats& stats, std::vector<CorpusEntry> corpus,
                     const Signature& accumulated,
                     std::vector<FuzzFinding> findings);

  /// Final stats refresh + move the result out (ends the campaign).
  [[nodiscard]] FuzzResult take_result();

 private:
  struct Slot {
    ScenarioSpec spec;
    FuzzVerdict verdict;  // filled by the execute phase
  };

  void merge_slot(const Slot& s);
  void attach_workload(ScenarioSpec& spec) const;
  void refresh_stats();
  [[nodiscard]] bool out_of_time() const;

  FuzzConfig cfg_;
  std::vector<ScenarioSpec> seeds_;
  FuzzResult res_;
  std::vector<Slot> slots_;
  std::uint64_t exec_index_ = 0;
  std::uint64_t next_minimize_ = 0;
  std::uint64_t rounds_merged_ = 0;
  std::chrono::steady_clock::time_point t0_;
};

// ---------------------------------------------------------------------------
// The fuzz engine's options, declared once for every front end: mcan-fuzz,
// mcan-rsm fuzz and mcan-attack fuzz parse argv through them, mcan-client
// builds job specs from them, and the serve backend decodes specs and
// renders fingerprints through them.
// ---------------------------------------------------------------------------

/// The campaign kinds the engine runs: wire-level fuzzing, fuzzing with
/// the consensus workload attached (FuzzConfig::workload), and fuzzing
/// with the attack genome space open (FuzzBounds attack fields).
enum class FuzzKind : std::uint8_t { Fuzz, Rsm, Attack };

/// "fuzz", "rsm" or "attack": the job-spec backend name.
[[nodiscard]] const char* fuzz_kind_name(FuzzKind kind);

/// A campaign as command lines and job specs describe it: the engine
/// config plus the --envelope switch.
struct FuzzJob {
  explicit FuzzJob(FuzzKind kind = FuzzKind::Fuzz);

  FuzzKind kind;
  FuzzConfig cfg;         ///< rsm: workload engaged; attack: 2 attackers
  bool envelope = false;  ///< resolve() applies FuzzBounds::envelope

  /// Apply the envelope, sanitize the workload against the bus size and
  /// validate the protocol (throws std::invalid_argument).  Call once,
  /// after the options are parsed or decoded.
  void resolve();

  /// {"backend": kind, then every key of fuzz_options(kind) as resolved}:
  /// a journal only resumes into a job with an equal fingerprint.
  [[nodiscard]] std::string fingerprint() const;
};

/// The options of `kind` in fingerprint order: the rsm workload keys
/// (rsm only), the campaign keys, the attack keys (attack only), then
/// the command-line-only --max-time.
[[nodiscard]] const OptionTable<FuzzJob>& fuzz_options(FuzzKind kind);

/// The campaign stats as a one-line JSON object — the exact shape the
/// mcan-fuzz CLI writes for --stats-json and the serve fuzz backend
/// returns as a job result, so the two can be compared byte-for-byte
/// (modulo the wall-clock "seconds" field).
[[nodiscard]] std::string fuzz_stats_json(const FuzzStats& st,
                                          const ProtocolParams& protocol,
                                          int n_nodes, std::uint64_t seed);

}  // namespace mcan
