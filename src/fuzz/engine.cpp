#include "fuzz/engine.hpp"

#include <algorithm>

#include "util/parallel.hpp"
#include "util/text.hpp"

namespace mcan {

FuzzCampaign::FuzzCampaign(const FuzzConfig& cfg,
                           const std::vector<ScenarioSpec>& seeds)
    : cfg_(cfg),
      seeds_(seeds),
      next_minimize_(cfg.minimize_every),
      t0_(std::chrono::steady_clock::now()) {
  // The rsm runner's membership bitmap caps the bus at 8 replicas.
  if (cfg_.workload) {
    cfg_.bounds.max_nodes = std::min(cfg_.bounds.max_nodes, 8);
    cfg_.bounds.min_nodes =
        std::min(cfg_.bounds.min_nodes, cfg_.bounds.max_nodes);
  }
}

bool FuzzCampaign::out_of_time() const {
  if (cfg_.max_time_s <= 0) return false;
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0_;
  return dt.count() >= cfg_.max_time_s;
}

bool FuzzCampaign::finished() const {
  if (rounds_merged_ == 0) return false;  // round zero always runs
  if (cfg_.stop && cfg_.stop->load(std::memory_order_relaxed)) return true;
  return exec_index_ >= cfg_.max_execs || out_of_time();
}

std::size_t FuzzCampaign::plan_round() {
  slots_.clear();
  if (rounds_merged_ == 0) {
    // Round zero: the clean seed plus every caller-provided seed, in
    // order.  Seeds always run (they prime the corpus) even if they
    // overshoot max_execs.
    slots_.push_back({seed_scenario(cfg_.protocol, cfg_.n_nodes), {}});
    for (const ScenarioSpec& s : seeds_) slots_.push_back({s, {}});
    for (Slot& s : slots_) {
      attach_workload(s.spec);
      sanitize_scenario(s.spec, cfg_.bounds);
    }
    return slots_.size();
  }
  if (finished()) return 0;
  // Plan (sequential): each slot draws from its own (seed, exec) stream.
  const std::uint64_t n_slots = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(std::max(1, cfg_.batch)),
      cfg_.max_execs - exec_index_);
  for (std::uint64_t i = 0; i < n_slots; ++i) {
    Rng rng(cfg_.seed, exec_index_ + i);
    const CorpusEntry& parent = res_.corpus.select(rng);
    Slot s{mutate_scenario(parent.spec, cfg_.bounds, rng), {}};
    attach_workload(s.spec);
    slots_.push_back(std::move(s));
  }
  return slots_.size();
}

void FuzzCampaign::attach_workload(ScenarioSpec& spec) const {
  if (!cfg_.workload) return;
  // Reassert the campaign's workload on every genome (parents already
  // carry it; this keeps a drifted corpus entry — e.g. a restored
  // checkpoint from older bounds — from changing what is being fuzzed)
  // and re-fit it to this genome's node count.
  spec.rsm = sanitize_rsm_workload(*cfg_.workload, spec.n_nodes);
}

void FuzzCampaign::execute_slot(std::size_t i) {
  slots_[i].verdict = run_fuzz_case(slots_[i].spec);
}

void FuzzCampaign::merge_slot(const Slot& s) {
  res_.stats.execs += 1;
  res_.stats.classes_seen |= s.verdict.classes;
  if (res_.corpus.admit(s.spec, s.verdict.sig, exec_index_)) {
    res_.stats.admitted += 1;
  }
  if (s.verdict.violation()) {
    res_.stats.findings += 1;
    res_.findings.push_back({s.spec, s.verdict, exec_index_});
  }
  ++exec_index_;
}

void FuzzCampaign::refresh_stats() {
  res_.stats.corpus_size = static_cast<int>(res_.corpus.size());
  res_.stats.signature_bits = res_.corpus.accumulated().popcount();
  res_.stats.fsm_transitions = res_.corpus.accumulated().fsm_popcount();
  res_.stats.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
}

void FuzzCampaign::merge_round() {
  // Merge (sequential, slot order): identical for every worker count.
  for (const Slot& s : slots_) merge_slot(s);
  if (rounds_merged_ > 0) {
    if (cfg_.minimize_every > 0 && exec_index_ >= next_minimize_) {
      res_.stats.evicted +=
          static_cast<std::uint64_t>(res_.corpus.minimize());
      next_minimize_ += cfg_.minimize_every;
    }
    refresh_stats();
    if (cfg_.on_round) cfg_.on_round(res_.stats);
  }
  slots_.clear();
  ++rounds_merged_;
}

void FuzzCampaign::restore_state(std::uint64_t exec_index,
                                 std::uint64_t next_minimize,
                                 const FuzzStats& stats,
                                 std::vector<CorpusEntry> corpus,
                                 const Signature& accumulated,
                                 std::vector<FuzzFinding> findings) {
  exec_index_ = exec_index;
  next_minimize_ = next_minimize;
  res_.stats = stats;
  res_.corpus.restore(std::move(corpus), accumulated);
  res_.findings = std::move(findings);
  slots_.clear();
  // A snapshot is only ever taken after a merged round, so the restored
  // campaign plans from the corpus (round zero is behind it).
  rounds_merged_ = 1;
}

FuzzResult FuzzCampaign::take_result() {
  refresh_stats();
  return std::move(res_);
}

FuzzResult run_fuzz(const FuzzConfig& cfg, const std::vector<ScenarioSpec>& seeds) {
  const int jobs = resolve_jobs(cfg.jobs);
  FuzzCampaign campaign(cfg, seeds);
  for (;;) {
    const std::size_t n = campaign.plan_round();
    if (n == 0) break;
    parallel_for(n, jobs, [&](std::size_t i) { campaign.execute_slot(i); });
    campaign.merge_round();
  }
  return campaign.take_result();
}

std::string fuzz_stats_json(const FuzzStats& st, const ProtocolParams& protocol,
                            int n_nodes, std::uint64_t seed) {
  std::string s = "{";
  s += "\"protocol\":\"" + json_escape(protocol.name()) + "\"";
  s += ",\"nodes\":" + std::to_string(n_nodes);
  s += ",\"seed\":" + std::to_string(seed);
  s += ",\"execs\":" + std::to_string(st.execs);
  s += ",\"admitted\":" + std::to_string(st.admitted);
  s += ",\"findings\":" + std::to_string(st.findings);
  s += ",\"evicted\":" + std::to_string(st.evicted);
  s += ",\"corpus\":" + std::to_string(st.corpus_size);
  s += ",\"signature_bits\":" + std::to_string(st.signature_bits);
  s += ",\"fsm_transitions\":" + std::to_string(st.fsm_transitions);
  s += ",\"classes\":\"" + fuzz_classes_to_string(st.classes_seen) + "\"";
  s += ",\"seconds\":" + json_number(st.elapsed_s);
  s += "}\n";
  return s;
}

}  // namespace mcan
