// rare_table1_can32: the Table-1 importance-sampling campaign (standard
// CAN, N=32, ber 1e-5, jobs=2).  No observers; 32 controllers step every
// bit, the injector draws per node per bit and every trial starts from a
// cloned prefix, so kernel, controller and injector costs dominate.  The
// result is checked against its expectation and, independently, against
// the paper's closed form (expr. (4)).
#include <optional>

#include "core/network.hpp"
#include "fault/random_faults.hpp"
#include "rare/campaign.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

long long rare_trials(const Args& a) { return a.smoke ? 1024 : 20000; }

mcan::RareConfig rare_config(const Args& a) {
  mcan::RareConfig cfg;
  cfg.protocol = mcan::ProtocolParams::standard_can();
  cfg.n_nodes = 32;
  cfg.ber = 1e-5;
  cfg.mode = mcan::RareMode::kImportance;
  cfg.seed = a.seed;
  cfg.trials = rare_trials(a);
  cfg.jobs = kJobs;
  cfg.batch = 256;
  return cfg;
}

struct RareRun {
  Rep rep;
  double setup_s = 0;
  std::vector<double> round_s;
  mcan::RareResult result;
};

RareRun run_once(const Args& a, Report& r, Tracer* tr) {
  RareRun out;
  const double c0 = cpu_s();
  const double t0 = now_s();
  std::optional<mcan::RareCampaign> c;
  {
    Scoped s(tr, "rare.construct");
    c.emplace(rare_config(a));
  }
  RoundStats rs;
  drive_rounds(*c, kJobs, tr, "rare", -2, &rs);
  out.rep.wall_s = now_s() - t0;
  out.rep.cpu_s = cpu_s() - c0;
  out.setup_s = rs.first_planned - t0;
  out.round_s = std::move(rs.round_s);
  out.result = c->result();
  out.rep.units = static_cast<double>(c->trials_done());
  // result() carries no wall-clock fields; to_json is deterministic.
  r.verify("rare_table1_can32/seed=" + std::to_string(a.seed) +
               "/trials=" + std::to_string(rare_trials(a)),
           out.result.to_json());
  // Independent check against expr. (4): the Table-1 estimate must land
  // within a factor of two of the closed form (its 95% CI is ~+/-12% at
  // 20000 trials).  Smoke sizes are too small for the comparison.
  if (!a.smoke) {
    const double ratio =
        out.result.imo_estimate().p_hat / out.result.closed_form_p4();
    r.count(ratio > 0.5 && ratio < 2.0,
            "rare estimate vs expr. (4) ratio " + std::to_string(ratio));
  }
  return out;
}

/// Host seconds to step a saturated 32-node CAN bus `bits` times, with or
/// without the paper's random fault model at ber/N per node.
double saturated_n32(std::uint64_t seed, long long bits, bool faults) {
  mcan::Network net(32, mcan::ProtocolParams::standard_can());
  mcan::RandomFaults inj(1e-5 / 32, mcan::Rng(seed, 7));
  if (faults) net.set_injector(inj);
  int next = 0;
  const double t0 = now_s();
  for (long long i = 0; i < bits; ++i) {
    if (net.node(0).pending_tx() < 2) {
      net.node(0).enqueue(mcan::Frame::make_blank(
          0x100 + static_cast<std::uint32_t>(next++ % 8), 8));
    }
    net.sim().step();
  }
  return now_s() - t0;
}

}  // namespace

void rare_e2e(const Args& a, Report& r) {
  std::vector<double> setups;
  for (int i = 0; i < 30; ++i) {
    const double t0 = now_s();
    mcan::RareCampaign c(rare_config(a));
    (void)c.plan_round();
    setups.push_back(now_s() - t0);
  }
  std::vector<double> rates;
  std::vector<std::vector<double>> latency;
  const double t0 = now_s();
  repeat_until(t0, a.seconds, 3, [&] {
    RareRun run = run_once(a, r, nullptr);
    rates.push_back(run.rep.units / run.rep.wall_s);
    setups.push_back(run.setup_s);
    latency.push_back(std::move(run.round_s));
  });
  r.meta("sizes", "n=32 protocol=can ber=1e-5 mode=importance trials=" +
                      std::to_string(rare_trials(a)) +
                      " batch=256 jobs=2 reps=" + std::to_string(rates.size()));
  emit_e2e(r, rates, setups, latency);
}

Rep rare_rep(const Args& a, Report& r, Tracer* tr) {
  return run_once(a, r, tr).rep;
}

Rep rare_layers(const Args& a, Report& r, Tracer& tr) {
  RareRun run = run_once(a, r, &tr);
  r.metric("rare.plan_ms", ms(tr.self_s("rare.plan")), "ms");
  r.metric("rare.execute_ms", ms(tr.self_s("rare.execute")), "ms");
  r.metric("rare.merge_ms", ms(tr.self_s("rare.merge")), "ms");
  const double trials = static_cast<double>(run.result.imo.trials());
  r.metric("rare.hit_ratio",
           static_cast<double>(run.result.imo.hits()) / trials, "ratio");
  r.metric("rare.ratio_vs_expr4",
           run.result.imo_estimate().p_hat / run.result.closed_form_p4(),
           "ratio");

  // The constructor builds the clean-prefix template.
  std::optional<mcan::RareCampaign> c;
  for (int i = 0; i < 9; ++i) {
    Scoped s(&tr, "rare.construct");
    c.emplace(rare_config(a));
  }
  r.metric("rare.prefix_ms", ms(median(tr.durations("rare.construct"))), "ms");

  // Single trials over their streams, one thread.
  const mcan::ProbePlan& plan = c->probe_plan();
  const mcan::PrefixState prefix(plan);
  const int n = a.smoke ? 200 : 2000;
  for (int i = 0; i < n; ++i) {
    Scoped s(&tr, "rare.trial", -2, i);
    (void)mcan::run_biased_trial(plan, &prefix,
                                 mcan::Rng(a.seed, static_cast<std::uint64_t>(i)));
  }
  const std::vector<double> trial = tr.durations("rare.trial");
  r.metric("rare.trial_us_p50", us(quantile(trial, 0.5)), "us");
  r.metric("rare.trial_us_p99", us(quantile(trial, 0.99)), "us");

  // Kernel and injector on a saturated 32-node bus, interleaved.
  const long long bits = a.smoke ? 5000 : 60000;
  double clean = 0;
  double noisy = 0;
  for (int pass = 0; pass < 3; ++pass) {
    {
      Scoped s(&tr, "sim.n32_clean");
      clean += saturated_n32(a.seed, bits, false);
    }
    Scoped s(&tr, "sim.n32_faults");
    noisy += saturated_n32(a.seed, bits, true);
  }
  const double steps = 3.0 * static_cast<double>(bits);
  r.metric("sim.n32_ns_per_bit", clean / steps * 1e9, "ns");
  r.metric("fault.draw_ns", (noisy - clean) / (steps * 32) * 1e9, "ns");
  return run.rep;
}

}  // namespace pb
