// fuzz_can8: a coverage-guided fuzz campaign on standard CAN at N=8 (node,
// traffic and crash mutations on, jobs=2), followed by export_findings
// triage.  Every exec runs run_scenario with its trace and invariant
// observers, so the observer, oracle and corpus layers dominate.
#include <filesystem>
#include <optional>

#include "fuzz/engine.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/triage.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

struct FuzzSize {
  int campaigns;           ///< campaigns per repetition, seeds drawn from --seed
  std::uint64_t execs;     ///< execs per campaign
  std::size_t triage;      ///< raw findings triaged per campaign
  int sample;              ///< corpus inputs timed by the oracle and replay stages
};

FuzzSize fuzz_size(const Args& a) {
  return a.smoke ? FuzzSize{2, 128, 4, 8} : FuzzSize{4, 1024, 16, 48};
}

/// Campaign seeds: drawn from the workload seed, so every campaign of a
/// run explores differently and a run averages over several trajectories.
std::vector<std::uint64_t> campaign_seeds(const Args& a) {
  mcan::Rng rng(a.seed, 23);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < fuzz_size(a).campaigns; ++i) {
    out.push_back(1 + rng.next_below(1000000));
  }
  return out;
}

mcan::FuzzConfig fuzz_config(const Args& a, std::uint64_t seed) {
  mcan::FuzzConfig cfg;
  cfg.protocol = mcan::ProtocolParams::standard_can();
  cfg.n_nodes = 8;
  cfg.seed = seed;
  cfg.max_execs = fuzz_size(a).execs;
  cfg.jobs = kJobs;
  cfg.batch = 64;
  return cfg;
}

struct FuzzRun {
  Rep rep;
  std::vector<double> round_s;
  std::vector<mcan::FuzzResult> results;
};

/// One repetition: every campaign, each followed by triage of its first
/// raw findings (capped, so triage cost does not swing with how lucky a
/// seed was).  Each campaign's deterministic result (stats JSON with the
/// wall-clock field zeroed, then the reproducer file names) is verified.
FuzzRun run_once(const Args& a, Report& r, Tracer* tr) {
  FuzzRun out;
  const std::string dir = a.work_dir + "/fuzz-findings";
  const FuzzSize size = fuzz_size(a);
  const double c0 = cpu_s();
  const double t0 = now_s();
  for (const std::uint64_t seed : campaign_seeds(a)) {
    std::optional<mcan::FuzzCampaign> c;
    {
      Scoped s(tr, "fuzz.construct");
      c.emplace(fuzz_config(a, seed));
    }
    RoundStats rs;
    drive_rounds(*c, kJobs, tr, "fuzz", -2, &rs);
    out.round_s.insert(out.round_s.end(), rs.round_s.begin(), rs.round_s.end());
    mcan::FuzzResult res = c->take_result();
    const std::vector<mcan::FuzzFinding> raw(
        res.findings.begin(),
        res.findings.begin() +
            static_cast<long>(std::min(size.triage, res.findings.size())));
    std::filesystem::remove_all(dir);
    std::vector<mcan::TriagedFinding> triaged;
    {
      Scoped s(tr, "fuzz.triage");
      triaged = mcan::export_findings(raw, dir,
                                      "perfbench seed " + std::to_string(seed));
    }
    out.rep.units += static_cast<double>(res.stats.execs);

    mcan::FuzzStats st = res.stats;
    st.elapsed_s = 0;
    std::string text = mcan::fuzz_stats_json(st, c->config().protocol,
                                             c->config().n_nodes, seed);
    for (const mcan::TriagedFinding& f : triaged) {
      text += mcan::finding_file_name(f) + (f.replay_ok ? " ok\n" : " NOREPLAY\n");
    }
    r.verify("fuzz_can8/seed=" + std::to_string(a.seed) +
                 "/execs=" + std::to_string(size.execs) +
                 "/campaign=" + std::to_string(seed),
             text);
    out.results.push_back(std::move(res));
  }
  out.rep.wall_s = now_s() - t0;
  out.rep.cpu_s = cpu_s() - c0;
  return out;
}

}  // namespace

void fuzz_e2e(const Args& a, Report& r) {
  // Set-up (constructor + first plan) costs well under a microsecond, so
  // it is timed in batches; setup_s is the median batch mean.
  std::vector<double> setups;
  constexpr int kBatch = 1000;
  for (int b = 0; b < 50; ++b) {
    const double t0 = now_s();
    for (int i = 0; i < kBatch; ++i) {
      mcan::FuzzCampaign c(fuzz_config(a, a.seed));
      (void)c.plan_round();
    }
    setups.push_back((now_s() - t0) / kBatch);
  }
  (void)run_once(a, r, nullptr);  // warm-up, verified but not timed
  std::vector<double> rates;
  std::vector<std::vector<double>> latency;
  const double t0 = now_s();
  repeat_until(t0, a.seconds, 3, [&] {
    FuzzRun run = run_once(a, r, nullptr);
    rates.push_back(run.rep.units / run.rep.wall_s);
    latency.push_back(std::move(run.round_s));
  });
  const FuzzSize size = fuzz_size(a);
  r.meta("sizes", "n=8 protocol=can campaigns=" +
                      std::to_string(size.campaigns) +
                      " execs=" + std::to_string(size.execs) +
                      " triage=" + std::to_string(size.triage) +
                      " batch=64 jobs=2 reps=" + std::to_string(rates.size()));
  emit_e2e(r, rates, setups, latency);
}

Rep fuzz_rep(const Args& a, Report& r, Tracer* tr) {
  return run_once(a, r, tr).rep;
}

Rep fuzz_layers(const Args& a, Report& r, Tracer& tr,
                std::vector<mcan::ScenarioSpec>& sample) {
  FuzzRun run = run_once(a, r, &tr);
  r.metric("fuzz.plan_ms", ms(tr.self_s("fuzz.plan")), "ms");
  r.metric("fuzz.execute_ms", ms(tr.self_s("fuzz.execute")), "ms");
  r.metric("fuzz.merge_ms", ms(tr.self_s("fuzz.merge")), "ms");
  r.metric("fuzz.triage_ms", ms(tr.self_s("fuzz.triage")), "ms");
  double admitted = 0;
  for (const mcan::FuzzResult& res : run.results) {
    admitted += static_cast<double>(res.stats.admitted);
  }
  r.metric("fuzz.admit_ratio", admitted / run.rep.units, "ratio");

  // The fixed input sample: the first corpus entries of each campaign, in
  // admission order.
  sample.clear();
  const std::size_t per = static_cast<std::size_t>(fuzz_size(a).sample) /
                          run.results.size();
  for (const mcan::FuzzResult& res : run.results) {
    std::size_t taken = 0;
    for (const mcan::CorpusEntry& e : res.corpus.entries()) {
      if (taken == per) break;
      if (e.spec.rsm) continue;
      sample.push_back(e.spec);
      ++taken;
    }
  }

  // Oracle cost: run_fuzz_case minus the run_scenario it wraps, per input.
  for (int pass = 0; pass < 3; ++pass) {
    for (const mcan::ScenarioSpec& spec : sample) {
      {
        Scoped s(&tr, "fuzz.run_fuzz_case");
        (void)mcan::run_fuzz_case(spec);
      }
      Scoped s(&tr, "fuzz.run_scenario");
      (void)mcan::run_scenario(spec);
    }
  }
  const double n = 3.0 * static_cast<double>(sample.size());
  r.metric("fuzz.oracle_us",
           us((tr.total_s("fuzz.run_fuzz_case") -
               tr.total_s("fuzz.run_scenario")) / n),
           "us");
  return run.rep;
}

}  // namespace pb
