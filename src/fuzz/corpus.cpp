#include "fuzz/corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "fuzz/oracle.hpp"
#include "util/text.hpp"

namespace mcan {

bool Corpus::admit(const ScenarioSpec& spec, const Signature& sig,
                   std::uint64_t exec_index) {
  const int added = accumulated_.merge(sig);
  if (added == 0) return false;
  entries_.push_back({spec, sig, exec_index, added});
  total_energy_ += added;
  return true;
}

const CorpusEntry& Corpus::select(Rng& rng) const {
  long long pick = static_cast<long long>(
      rng.next_below(static_cast<std::uint32_t>(total_energy_)));
  for (const CorpusEntry& e : entries_) {
    pick -= e.energy;
    if (pick < 0) return e;
  }
  return entries_.back();
}

int Corpus::minimize() {
  // Greedy set cover, richest signatures first.  Stable sort on an index
  // vector so ties resolve by discovery order (determinism).
  std::vector<std::size_t> order(entries_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return entries_[a].sig.popcount() >
                            entries_[b].sig.popcount();
                   });
  Signature covered;
  std::vector<bool> keep(entries_.size(), false);
  for (const std::size_t i : order) {
    if (covered.merge(entries_[i].sig) > 0) keep[i] = true;
  }
  std::vector<CorpusEntry> kept;
  total_energy_ = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!keep[i]) continue;
    kept.push_back(entries_[i]);
    total_energy_ += entries_[i].energy;
  }
  const int evicted = static_cast<int>(entries_.size() - kept.size());
  entries_ = std::move(kept);
  return evicted;
}

void Corpus::restore(std::vector<CorpusEntry> entries,
                     const Signature& accumulated) {
  entries_ = std::move(entries);
  accumulated_ = accumulated;
  total_energy_ = 0;
  for (const CorpusEntry& e : entries_) total_energy_ += e.energy;
}

int save_corpus(const Corpus& corpus, const std::string& dir) {
  // A directory that cannot be made shows up as unwritable files.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  int index = 0;
  int written = 0;
  for (const CorpusEntry& e : corpus.entries()) {
    char name[32];
    std::snprintf(name, sizeof name, "corpus-%04d.scn", index++);
    ScenarioWriteOptions opts;
    opts.header = {"fuzz corpus entry (exec " + std::to_string(e.exec_index) +
                   ", energy " + std::to_string(e.energy) + ")"};
    if (write_text_file((std::filesystem::path(dir) / name).string(),
                        write_scenario(e.spec, opts))) {
      ++written;
    }
  }
  return written;
}

int load_corpus_dir(Corpus& corpus, const std::string& dir) {
  std::vector<std::filesystem::path> files;
  if (!std::filesystem::is_directory(dir)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".scn") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  int admitted = 0;
  for (const auto& path : files) {
    const ScenarioSpec spec = load_scenario_file(path.string());
    const FuzzVerdict v = run_fuzz_case(spec);
    if (corpus.admit(spec, v.sig, 0)) ++admitted;
  }
  return admitted;
}

}  // namespace mcan
