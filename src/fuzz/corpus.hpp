// The corpus manager: what the fuzzer keeps and what it mutates next.
//
// Admission is the coverage-guided criterion: an input enters the corpus
// iff its signature sets at least one bit the accumulated map has never
// seen (a new FSM transition, a new invariant class, a new property
// outcome).  Each entry carries an energy — the number of bits it
// contributed when admitted — and seed selection draws entries with
// probability proportional to energy, so inputs that opened new behaviour
// get mutated more.  minimize() is a greedy set cover: it keeps a subset
// of entries whose union still covers every accumulated bit, evicting
// seeds made redundant by later, richer ones.
//
// The corpus has no internal locking.  The engine mutates it only from
// the sequential planning/merge phases of a round (see fuzz/engine.hpp);
// worker threads see it read-only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/signature.hpp"
#include "scenario/dsl.hpp"
#include "util/rng.hpp"

namespace mcan {

struct CorpusEntry {
  ScenarioSpec spec;
  Signature sig;
  std::uint64_t exec_index = 0;  ///< execution that discovered this entry
  int energy = 1;                ///< selection weight (bits contributed)
};

class Corpus {
 public:
  /// Admit `spec` iff `sig` adds at least one new bit.  Returns true on
  /// admission.
  bool admit(const ScenarioSpec& spec, const Signature& sig,
             std::uint64_t exec_index);

  /// Energy-weighted seed selection.  Precondition: !empty().
  [[nodiscard]] const CorpusEntry& select(Rng& rng) const;

  /// Greedy set-cover reduction: drop entries whose signature is covered
  /// by the kept set.  Returns how many entries were evicted.
  int minimize();

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<CorpusEntry>& entries() const {
    return entries_;
  }

  /// Union of every signature ever admitted (survives minimize()).
  [[nodiscard]] const Signature& accumulated() const { return accumulated_; }

  /// Replace the whole corpus state with a checkpointed snapshot: the
  /// entries exactly as they were (energies included) plus the accumulated
  /// map, which may cover bits no surviving entry carries.  Used by the
  /// campaign service's journal resume (serve/backend.cpp).
  void restore(std::vector<CorpusEntry> entries, const Signature& accumulated);

 private:
  std::vector<CorpusEntry> entries_;
  Signature accumulated_;
  long long total_energy_ = 0;
};

/// Write every corpus entry as `<dir>/corpus-NNNN.scn` (dir is created).
/// Returns the number of files written: fewer than corpus.size() when the
/// directory or a file cannot be written.
int save_corpus(const Corpus& corpus, const std::string& dir);

/// Load every *.scn under `dir` (sorted by name, non-recursive), re-execute
/// each through the oracle and admit it.  Returns the number admitted;
/// unparsable files throw.
int load_corpus_dir(Corpus& corpus, const std::string& dir);

}  // namespace mcan
