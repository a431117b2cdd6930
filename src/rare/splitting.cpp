#include "rare/splitting.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace mcan {

namespace {

/// One live trajectory: bus state, its private injector (likelihood state
/// travels with it), branch weight, and the delivery/TxSuccess counts
/// accumulated by the prefix and by *ancestors* (clone_bus does not copy
/// journals, so counts are carried as offsets across splits).
struct Particle {
  std::unique_ptr<Network> net;
  std::unique_ptr<BiasedFaults> inj;
  double weight = 1.0;
  int level = 0;
  ProbeCounts offsets;
};

int level_of(const BiasedFaults& inj) {
  int lvl = 0;
  if (inj.window_flips() > 0) lvl = 1;
  if (inj.rx_window_flips() > 0) lvl = 2;
  if (inj.rx_window_flips() > 0 && inj.tx_window_flips() > 0) lvl = 3;
  return lvl;
}

/// Clone `src` at its current bit time into an identical particle with an
/// independent random stream.
Particle clone_particle(const ProbePlan& plan, const Particle& src,
                        Rng child_rng) {
  Particle p;
  p.net = std::make_unique<Network>(plan.n_nodes, plan.protocol);
  clone_bus(*src.net, *p.net);
  p.inj = std::make_unique<BiasedFaults>(*src.inj);
  p.inj->reseed(child_rng);
  p.net->set_injector(*p.inj);
  p.level = src.level;
  // Fold the parent's own counts into the child's offsets: the child's
  // fresh journals restart at zero from the clone point.
  p.offsets = src.offsets;
  p.offsets.add(*src.net);
  return p;
}

}  // namespace

void SplitParams::validate() const {
  if (factor < 1) {
    throw std::invalid_argument("splitting: factor must be >= 1, got " +
                                std::to_string(factor));
  }
  if (max_particles < 1) {
    throw std::invalid_argument("splitting: max_particles must be >= 1");
  }
}

SplitTrialResult run_split_trial(const ProbePlan& plan,
                                 const PrefixState& prefix,
                                 const SplitParams& sp, Rng rng) {
  sp.validate();
  if (plan.t_first == 0 || plan.bias.base > 0.0) {
    throw std::logic_error(
        "splitting requires a tail-only plan (flips confined to the window)");
  }
  SplitTrialResult res;
  if (prefix.quiet_before_window) {
    // The run from bit 0 stops before the window: no flip, no crossing,
    // so the root is its only leaf.
    const TrialOutcome out = run_biased_trial(plan, &prefix, rng);
    res.leaves = 1;
    res.timeouts = out.timeout ? 1 : 0;
    if (out.imo) res.x_imo = std::exp(out.llr);
    if (out.dup) res.x_dup = std::exp(out.llr);
    return res;
  }
  // Beyond this bit no flip — hence no level crossing — can occur.
  const BitTime t_cut = plan.t_cut();

  long long spawned = 1;       // particles created for this root
  std::uint64_t clone_seq = 0; // unique rng fork tags within the trial

  std::vector<Particle> stack;
  {
    Particle root;
    root.net = std::make_unique<Network>(plan.n_nodes, plan.protocol);
    clone_bus(prefix.net, *root.net);
    root.inj = std::make_unique<BiasedFaults>(plan.ber_star, plan.bias,
                                              plan.eof_start, rng);
    root.inj->account_clean_prefix(plan.prefix_draws());
    root.net->set_injector(*root.inj);
    root.offsets = prefix.counts;
    stack.push_back(std::move(root));
  }

  while (!stack.empty()) {
    Particle p = std::move(stack.back());
    stack.pop_back();

    // Advance through the remainder of the window bit by bit, splitting at
    // each first arrival to a higher level.
    bool split_away = false;
    while (p.net->sim().now() < t_cut) {
      p.net->sim().step();
      const int lvl = level_of(*p.inj);
      if (lvl <= p.level) continue;
      p.level = lvl;
      res.max_level = std::max(res.max_level, lvl);
      if (sp.factor < 2 || spawned + sp.factor > sp.max_particles) {
        continue;  // cap reached: carry on unsplit, weight unchanged
      }
      // Replace the parent with `factor` children of weight w/factor: the
      // parent continues as one of them (keeping its stream), the rest are
      // clones with independent streams.
      p.weight /= static_cast<double>(sp.factor);
      for (int c = 1; c < sp.factor; ++c) {
        Particle child = clone_particle(plan, p, p.inj->fork(++clone_seq));
        child.weight = p.weight;
        stack.push_back(std::move(child));
      }
      spawned += sp.factor - 1;
      // Re-queue the parent too so clones and parent are processed alike
      // (depth-first order, deterministic).
      stack.push_back(std::move(p));
      split_away = true;
      break;
    }
    if (split_away) continue;

    // Window exhausted: no further crossings possible.  Run to quiescence
    // (as run_until_quiet from here) and classify with the prefix and
    // ancestor offsets folded in.
    RunEnd end = finish_run(*p.net, p.net->sim().now(), plan.quiet_budget);
    end.add(p.offsets);
    const ProbeVerdict out =
        classify_probe(end.deliveries, end.tx_success > 0, !end.quiet);

    ++res.leaves;
    if (out.timeout) {
      ++res.timeouts;
      continue;
    }
    const double w = std::exp(p.inj->llr()) * p.weight;
    if (out.imo) res.x_imo += w;
    if (out.dup) res.x_dup += w;
  }
  return res;
}

}  // namespace mcan
