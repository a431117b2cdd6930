#include "rare/trial.hpp"

#include <stdexcept>

#include "analysis/tagged.hpp"
#include "scenario/model_check.hpp"

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
  ProbePlan plan;
  plan.protocol = protocol;
  plan.n_nodes = n_nodes;
  plan.ber_star = ber / n_nodes;
  bias.resolve(protocol);
  bias.validate();
  plan.bias = bias;
  plan.frame = model_check_frame();
  plan.eof_start = model_check_eof_start(protocol);
  plan.quiet_budget = quiet_budget;
  if (bias.base <= 0.0) {
    // Tail-only: the prefix is clean under the proposal with certainty, so
    // it can be simulated once and cloned.  (The window never starts
    // before the frame: eof_start + win_lo_rel >= 0 is enforced here.)
    const int cut = plan.eof_start + bias.win_lo_rel;
    if (cut < 0) {
      throw std::invalid_argument(
          "rare: bias window starts before the probe frame (win_lo_rel=" +
          std::to_string(bias.win_lo_rel) + ")");
    }
    plan.t_first = static_cast<BitTime>(cut);
  } else {
    plan.t_first = 0;  // flips possible anywhere: simulate from bit 0
  }
  return plan;
}

PrefixState::PrefixState(const ProbePlan& plan)
    : net(plan.n_nodes, plan.protocol) {
  net.node(0).enqueue(plan.frame);
  while (net.sim().now() < plan.t_first) net.sim().step();
  deliveries.assign(static_cast<std::size_t>(plan.n_nodes), 0);
  for (int i = 0; i < plan.n_nodes; ++i) {
    deliveries[static_cast<std::size_t>(i)] =
        static_cast<int>(net.deliveries(i).size());
  }
  tx_success = static_cast<int>(net.log().count(EventKind::TxSuccess, 0));
}

TrialOutcome classify_trial(int n_nodes, const std::vector<int>& deliveries,
                            int tx_success, bool timeout) {
  TrialOutcome out;
  if (timeout) {
    out.timeout = true;
    return out;
  }
  bool any = false;
  bool all = true;
  for (int i = 1; i < n_nodes; ++i) {
    const int c = deliveries[static_cast<std::size_t>(i)];
    if (c > 0) any = true;
    if (c == 0) all = false;
    if (c > 1) out.dup = true;
  }
  const bool sender_has = tx_success > 0;
  out.imo = (any || sender_has) && !all;
  out.loss = !any && sender_has;
  return out;
}

std::unique_ptr<Network> make_trial_bus(const ProbePlan& plan,
                                        const PrefixState* prefix) {
  auto net = std::make_unique<Network>(plan.n_nodes, plan.protocol);
  if (prefix) {
    for (int i = 0; i < plan.n_nodes; ++i) {
      net->node(i).clone_runtime_state(prefix->net.node(i));
    }
    net->sim().warp_to(plan.t_first);
  } else {
    net->node(0).enqueue(plan.frame);
  }
  return net;
}

TrialOutcome run_biased_trial(const ProbePlan& plan, const PrefixState* prefix,
                              Rng rng, TailMemo* memo) {
  if (!prefix && plan.t_first != 0) {
    throw std::logic_error("rare: plan expects a prefix template");
  }
  std::unique_ptr<Network> net = make_trial_bus(plan, prefix);
  BiasedFaults inj(plan.ber_star, plan.bias, plan.eof_start, rng);
  if (prefix) inj.account_clean_prefix(plan.prefix_draws());
  net->set_injector(inj);

  // A prefix means a tail-only proposal (base == 0): past the cut it makes
  // only forced-clean draws, so the tail is a function of the bus state.
  const RunEnd end =
      finish_run(*net, plan.t_first, plan.quiet_budget, plan.t_cut(),
                 prefix ? memo : nullptr, [&inj] { return inj.clean_draws(); });
  if (end.skipped_draws > 0) inj.account_clean_prefix(end.skipped_draws);

  std::vector<int> deliveries = end.deliveries;
  int tx_success = end.tx_success;
  if (prefix) {
    for (std::size_t i = 0; i < deliveries.size(); ++i) {
      deliveries[i] += prefix->deliveries[i];
    }
    tx_success += prefix->tx_success;
  }

  TrialOutcome out =
      classify_trial(plan.n_nodes, deliveries, tx_success, !end.quiet);
  out.llr = inj.llr();
  return out;
}

}  // namespace mcan
