#include "fuzz/engine.hpp"

#include <algorithm>
#include <climits>

#include "rsm/cluster.hpp"
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

const char* fuzz_kind_name(FuzzKind kind) {
  switch (kind) {
    case FuzzKind::Rsm: return "rsm";
    case FuzzKind::Attack: return "attack";
    case FuzzKind::Fuzz: break;
  }
  return "fuzz";
}

FuzzJob::FuzzJob(FuzzKind k) : kind(k) {
  if (kind == FuzzKind::Rsm) cfg.workload.emplace();
  if (kind == FuzzKind::Attack) cfg.bounds.max_attacks = 2;
}

void FuzzJob::resolve() {
  if (envelope) cfg.bounds = cfg.bounds.envelope(cfg.protocol);
  if (cfg.workload) {
    cfg.workload = sanitize_rsm_workload(*cfg.workload, cfg.n_nodes);
  }
  cfg.protocol.validate();
}

std::string FuzzJob::fingerprint() const {
  Json head = Json::object();
  head.set("backend", Json(fuzz_kind_name(kind)));
  return fuzz_options(kind).render(*this, std::move(head)).dump();
}

namespace {

OptionTable<FuzzJob> make_fuzz_options(FuzzKind kind) {
  OptionTable<FuzzJob> t;
  if (kind == FuzzKind::Rsm) {
    auto w = [](auto& j) -> auto& { return *j.cfg.workload; };
    std::vector<std::string> links;
    for (int i = 0; i < 4; ++i) {
      links.emplace_back(rsm_link_name(static_cast<RsmLink>(i)));
    }
    t.integer({"--commands", "", "commands", "N",
               "commands proposed round-robin"},
              [w](auto& j) -> auto& { return w(j).commands; }, 1, 10)
        .integer({"--payload", "", "payload", "N", "command payload bytes"},
                 [w](auto& j) -> auto& { return w(j).payload; }, 1, 16)
        .integer({"--rsm-k", "", "k", "N", "votes needed to commit"},
                 [w](auto& j) -> auto& { return w(j).k; }, 1, 8)
        .integer({"--spacing", "", "spacing", "BITS",
                  "bits between proposals, 0 = back to back"},
                 [w](auto& j) -> auto& { return w(j).spacing; }, 0, 10000)
        .choice({"--link", "", "link", "L", "direct|edcan|relcan|totcan"},
                [w](auto& j) -> auto& { return w(j).link; }, links)
        .integer({"--crash-node", "", "crash", "N",
                  "host to crash, -1 = none"},
                 [w](auto& j) -> auto& { return w(j).crash_node; }, -1, 7)
        .integer({"--crash-t", "", "crasht", "BITS", "host crash time"},
                 [w](auto& j) -> auto& { return w(j).crash_t; }, 0, 100000)
        .integer({"--recover-t", "", "recovert", "BITS",
                  "rejoin time, 0 = stays down"},
                 [w](auto& j) -> auto& { return w(j).recover_t; }, 0,
                 150000);
  }
  t.token({"--protocol", "-p", "protocol", "P",
           "target protocol: can|minor|major|major:<m>"},
          [](auto& j) -> auto& { return j.cfg.protocol; }, parse_protocol_arg,
          protocol_token)
      .integer({"--nodes", "-n", "nodes", "N", "bus size"},
               [](auto& j) -> auto& { return j.cfg.n_nodes; }, 2, 8)
      .integer({"--seed", "", "seed", "N", "campaign seed"},
               [](auto& j) -> auto& { return j.cfg.seed; }, 0, LLONG_MAX)
      .integer({"--max-execs", "", "max_execs", "N", "execution budget"},
               [](auto& j) -> auto& { return j.cfg.max_execs; }, 1,
               LLONG_MAX)
      .integer({"--batch", "", "batch", "N", "executions per round"},
               [](auto& j) -> auto& { return j.cfg.batch; }, 1, 1000000)
      .integer({"--minimize-every", "", "minimize_every", "N",
                "corpus minimize period, in executions"},
               [](auto& j) -> auto& { return j.cfg.minimize_every; }, 1,
               LLONG_MAX)
      .integer({"--max-flips", "", "max_flips", "N", "cap flips per input"},
               [](auto& j) -> auto& { return j.cfg.bounds.max_flips; }, 1,
               1000000)
      .toggle({"--mutate-protocol", "", "mutate_protocol", "",
               "let mutations drift the protocol variant/m"},
              [](auto& j) -> auto& { return j.cfg.bounds.mutate_protocol; },
              true)
      .toggle({"--envelope", "", "envelope", "",
               "cap disturbances at the protocol tolerance\n"
               "(m for MajorCAN_m): the paper's <= m claim"},
              &FuzzJob::envelope, true);
  if (kind == FuzzKind::Attack) {
    t.integer({"--attacks", "", "max_attacks", "N",
               "attack directives per genome"},
              [](auto& j) -> auto& { return j.cfg.bounds.max_attacks; }, 1, 16)
        .integer({"--budget", "", "attack_budget", "N",
                  "total glitch-flip budget per genome"},
                 [](auto& j) -> auto& { return j.cfg.bounds.attack_budget; },
                 1, 64)
        .toggle({"--no-spoof", "", "allow_spoof", "",
                 "disable the spoofed-ID attacker"},
                [](auto& j) -> auto& { return j.cfg.bounds.allow_spoof; },
                false)
        .toggle({"--no-busoff", "", "allow_busoff", "",
                 "disable the bus-off attacker"},
                [](auto& j) -> auto& { return j.cfg.bounds.allow_busoff; },
                false);
  }
  t.real({"--max-time", "", "", "S", "wall-clock budget in seconds, 0 = none"},
         [](auto& j) -> auto& { return j.cfg.max_time_s; }, 0, 1e9);
  return t;
}

}  // namespace

const OptionTable<FuzzJob>& fuzz_options(FuzzKind kind) {
  static const OptionTable<FuzzJob> tables[] = {
      make_fuzz_options(FuzzKind::Fuzz), make_fuzz_options(FuzzKind::Rsm),
      make_fuzz_options(FuzzKind::Attack)};
  return tables[static_cast<int>(kind)];
}

}  // namespace mcan
