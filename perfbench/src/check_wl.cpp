// check_major3_k4: the exhaustive model check of MajorCAN_3 at N=5,
// sweeping k=1..4 flips with tail memoization and symmetry reduction on,
// jobs=2.  Time goes to prefix cloning, state serialisation for the tail
// memo, symmetry canonicalisation and the shared memo: the reduction
// layer.  The sweep is exhaustive, so its counts are seed-independent
// (k=4: 3,183,545 cases, 252 IMO, 694 double receptions, 180 losses).
#include <set>

#include "scenario/model_check.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

int max_k(const Args& a) { return a.smoke ? 2 : 4; }

mcan::ModelCheckConfig check_config(int k) {
  mcan::ModelCheckConfig cfg;
  cfg.base.protocol = mcan::ProtocolParams::major_can(3);
  cfg.base.n_nodes = 5;
  cfg.base.errors = k;
  cfg.jobs = kJobs;
  cfg.dedup = true;
  cfg.symmetry = true;
  return cfg;
}

struct CheckRun {
  Rep rep;
  mcan::ModelCheckStats stats;  ///< summed over k
  long long cases = 0;
};

CheckRun run_once(const Args& a, Report& r, Tracer* tr) {
  CheckRun out;
  const double c0 = cpu_s();
  const double t0 = now_s();
  for (int k = 1; k <= max_k(a); ++k) {
    mcan::ModelCheckResult res;
    {
      Scoped s(tr, "check.sweep", -2, k);
      res = mcan::run_model_check(check_config(k));
    }
    out.cases += res.cases;
    out.stats.enumerated += res.stats.enumerated;
    out.stats.simulated += res.stats.simulated;
    out.stats.tail_memo_hits += res.stats.tail_memo_hits;
    out.stats.symmetry_skips += res.stats.symmetry_skips;
    out.stats.distinct_tails += res.stats.distinct_tails;
    // The counts, not the example list (which depends on thread timing).
    r.verify("check_major3_k4/k=" + std::to_string(k),
             "cases=" + std::to_string(res.cases) +
                 " imo=" + std::to_string(res.imo) +
                 " double=" + std::to_string(res.double_rx) +
                 " loss=" + std::to_string(res.total_loss) +
                 " timeouts=" + std::to_string(res.timeouts) +
                 " complete=" + (res.complete ? "1" : "0"));
  }
  out.rep.wall_s = now_s() - t0;
  out.rep.cpu_s = cpu_s() - c0;
  out.rep.units = static_cast<double>(out.cases);
  return out;
}

/// Set-up of a sweep: everything before the first case (validation, the
/// sweep plan, the prefix template, the memo, the workers), measured as a
/// sweep with a one-case budget, summed over k.
double setup_once(const Args& a) {
  const double t0 = now_s();
  for (int k = 1; k <= max_k(a); ++k) {
    mcan::ModelCheckConfig cfg = check_config(k);
    cfg.max_cases = 1;
    (void)mcan::run_model_check(cfg);
  }
  return now_s() - t0;
}

}  // namespace

void check_e2e(const Args& a, Report& r) {
  std::vector<double> setups;
  for (int i = 0; i < 40; ++i) setups.push_back(setup_once(a));
  std::vector<double> rates;
  std::vector<std::vector<double>> latency(1);  // whole sweeps, one group
  const double t0 = now_s();
  repeat_until(t0, a.seconds, 3, [&] {
    CheckRun run = run_once(a, r, nullptr);
    rates.push_back(run.rep.units / run.rep.wall_s);
    latency[0].push_back(run.rep.wall_s);
  });
  r.meta("sizes", "protocol=major:3 n=5 k=1.." + std::to_string(max_k(a)) +
                      " dedup=1 symmetry=1 jobs=2 reps=" +
                      std::to_string(rates.size()));
  emit_e2e(r, rates, setups, latency);
}

Rep check_rep(const Args& a, Report& r, Tracer* tr) {
  return run_once(a, r, tr).rep;
}

Rep check_layers(const Args& a, Report& r, Tracer& tr) {
  CheckRun run = run_once(a, r, &tr);
  const mcan::ModelCheckStats& st = run.stats;
  r.metric("scenario.mc_sweep_ms", ms(tr.total_s("check.sweep")), "ms");
  r.metric("scenario.mc_simulated_ratio",
           static_cast<double>(st.simulated) / static_cast<double>(run.cases),
           "ratio");
  r.metric("scenario.mc_memo_hit_ratio",
           static_cast<double>(st.tail_memo_hits) /
               static_cast<double>(st.simulated),
           "ratio");
  r.metric("scenario.mc_symmetry_skip_ratio",
           static_cast<double>(st.symmetry_skips) /
               static_cast<double>(st.enumerated),
           "ratio");
  r.metric("scenario.mc_distinct_tails", static_cast<double>(st.distinct_tails),
           "count");

  // Single flip patterns, sampled from the sweep's own window.
  const int k = max_k(a);
  const mcan::ModelCheckConfig cfg = check_config(k);
  const int lo = cfg.base.win_lo_rel;
  const int hi = cfg.base.window_hi();
  mcan::Rng rng(a.seed, 11);
  const int patterns = a.smoke ? 30 : 300;
  for (int p = 0; p < patterns; ++p) {
    std::set<std::pair<mcan::NodeId, int>> picked;
    while (static_cast<int>(picked.size()) < k) {
      picked.insert({static_cast<mcan::NodeId>(rng.next_below(5)),
                     lo + static_cast<int>(rng.next_below(
                              static_cast<std::uint32_t>(hi - lo + 1)))});
    }
    const std::vector<std::pair<mcan::NodeId, int>> flips(picked.begin(),
                                                          picked.end());
    Scoped s(&tr, "check.flip_case", -2, p);
    (void)mcan::run_flip_case(cfg.base.protocol, cfg.base.n_nodes, flips);
  }
  r.metric("scenario.mc_flip_case_us",
           us(tr.total_s("check.flip_case") / patterns), "us");

  // Reductions off vs on, same case budget.
  mcan::ModelCheckConfig on = cfg;
  on.max_cases = a.smoke ? 500 : 10000;
  mcan::ModelCheckConfig off = on;
  off.dedup = false;
  off.symmetry = false;
  {
    Scoped s(&tr, "check.reductions_off");
    (void)mcan::run_model_check(off);
  }
  {
    Scoped s(&tr, "check.reductions_on");
    (void)mcan::run_model_check(on);
  }
  r.metric("scenario.mc_reduction_speedup",
           tr.total_s("check.reductions_off") / tr.total_s("check.reductions_on"),
           "ratio");
  return run.rep;
}

}  // namespace pb
