#include "rare/trial.hpp"

#include <stdexcept>

namespace mcan {

ProbePlan ProbePlan::make(const ProtocolParams& protocol, int n_nodes,
                          double ber, BiasProfile bias, BitTime quiet_budget) {
  protocol.validate();
  if (n_nodes < 2) {
    throw std::invalid_argument("rare: n_nodes must be >= 2, got " +
                                std::to_string(n_nodes));
  }
  if (!(ber > 0.0) || ber > 1.0) {
    throw std::invalid_argument("rare: ber must be in (0, 1]");
  }
  bias.resolve(protocol);
  bias.validate();
  check_probe_window(protocol, bias.win_lo_rel, bias.win_hi_rel);
  ProbePlan plan;
  static_cast<ProbeEpisode&>(plan) = ProbeEpisode::make(
      protocol, n_nodes, bias.win_lo_rel, bias.win_hi_rel);
  plan.quiet_budget = quiet_budget;
  plan.ber_star = ber / n_nodes;
  plan.bias = bias;
  // Tail-only: the prefix is clean under the proposal with certainty, so
  // it can be simulated once and cloned.  Otherwise flips are possible
  // anywhere: simulate from bit 0.
  if (bias.base > 0.0) plan.t_first = 0;
  return plan;
}

TrialOutcome run_biased_trial(const ProbePlan& plan, const PrefixState* prefix,
                              Rng rng, TailMemo* memo) {
  if (!prefix && plan.t_first != 0) {
    throw std::logic_error("rare: plan expects a prefix template");
  }
  const EpisodeRun run(plan, prefix);
  Network& net = run.net();
  const bool cloned = run.cloned();
  BiasedFaults inj(plan.ber_star, plan.bias, plan.eof_start, rng);
  if (cloned) inj.account_clean_prefix(plan.prefix_draws());
  net.set_injector(inj);

  // A clone means a tail-only proposal (base == 0): past the cut it makes
  // only forced-clean draws, so the tail is a function of the bus state.
  RunEnd end = finish_run(net, cloned ? plan.t_first : 0, plan.quiet_budget,
                          cloned ? memo : nullptr, plan.t_cut(),
                          [&inj] { return inj.clean_draws(); });
  if (end.skipped_draws > 0) inj.account_clean_prefix(end.skipped_draws);
  if (cloned) end.add(prefix->counts);

  TrialOutcome out;
  static_cast<ProbeVerdict&>(out) =
      classify_probe(end.deliveries, end.tx_success > 0, !end.quiet);
  out.llr = inj.llr();
  return out;
}

}  // namespace mcan
