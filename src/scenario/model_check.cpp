#include "scenario/model_check.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <memory>
#include <stdexcept>

#include "core/network.hpp"
#include "fault/scripted.hpp"
#include "util/parallel.hpp"

namespace mcan {

void ModelCheckConfig::validate() const {
  base.validate();
  if (jobs < 0) {
    throw std::invalid_argument("model check: jobs must be >= 0 (0 = auto)");
  }
  if (max_cases < 0) {
    throw std::invalid_argument("model check: max_cases must be >= 0");
  }
  if (max_examples < 0) {
    throw std::invalid_argument("model check: max_examples must be >= 0");
  }
}

std::string ModelCheckResult::summary() const {
  std::string s = cfg.protocol.name();
  s += " nodes=" + std::to_string(cfg.n_nodes);
  s += " k=" + std::to_string(cfg.errors);
  s += " cases=" + std::to_string(cases);
  if (!complete) s += " (budget-bounded)";
  s += " | IMO=" + std::to_string(imo);
  s += " double-rx=" + std::to_string(double_rx);
  s += " total-loss=" + std::to_string(total_loss);
  if (timeouts) s += " TIMEOUTS=" + std::to_string(timeouts);
  if (violations() == 0) {
    s += complete ? " => VERIFIED CONSISTENT" : " => no violation found";
  } else {
    s += " => COUNTEREXAMPLES";
  }
  return s;
}

namespace {

/// Per-sweep constants, computed once: the episode plus its flip slots.
struct SweepPlan : ProbeEpisode {
  std::vector<std::pair<NodeId, int>> slots;
  long long total_combos = 0;
};

long long n_choose_k(std::size_t n, int k) {
  if (k < 0 || static_cast<std::size_t>(k) > n) return 0;
  long long r = 1;
  for (int i = 1; i <= k; ++i) {
    r = r * static_cast<long long>(n - static_cast<std::size_t>(k) + i) / i;
  }
  return r;
}

SweepPlan make_plan(const ExhaustiveConfig& cfg) {
  SweepPlan plan;
  static_cast<ProbeEpisode&>(plan) = ProbeEpisode::make(
      cfg.protocol, cfg.n_nodes, cfg.win_lo_rel, cfg.window_hi());
  for (int n = 0; n < cfg.n_nodes; ++n) {
    for (int pos = plan.win_lo_rel; pos <= plan.win_hi_rel; ++pos) {
      plan.slots.emplace_back(static_cast<NodeId>(n), pos);
    }
  }
  plan.total_combos = n_choose_k(plan.slots.size(), cfg.errors);
  return plan;
}

/// Run one flip pattern to quiescence.  With a prefix template, the case
/// starts from a clone of it, simulates only the flip window and finishes
/// from the memoized tail; without one it is the reference run from bit 0.
/// Either way it stops where the reference run stops (docs/MODEL_CHECKING.md).
RunEnd run_case(const ProbeEpisode& ep, const PrefixState* prefix,
                TailMemo* memo,
                const std::vector<std::pair<NodeId, int>>& flips) {
  const EpisodeRun run(ep, prefix);
  Network& net = run.net();
  const bool cloned = run.cloned();
  ScriptedFaults inj;
  for (const auto& [node, pos] : flips) {
    inj.add(
        FaultTarget::at_time(node, static_cast<BitTime>(ep.eof_start + pos)));
  }
  net.set_injector(inj);

  // The reference run starts at bit 0; a clone resumes it at t_first.
  RunEnd end = finish_run(net, 0, ep.quiet_budget, cloned ? memo : nullptr,
                          ep.t_cut());
  if (cloned) end.add(prefix->counts);
  return end;
}

// ---------------------------------------------------------------------------
// symmetry reduction
// ---------------------------------------------------------------------------

long long factorial(int n) {
  long long r = 1;
  for (int i = 2; i <= n; ++i) r *= i;
  return r;
}

/// Receiver-permutation orbit handling.  Receivers (nodes 1..n-1) are
/// interchangeable: they share configuration and flip window, so renaming
/// them maps any case to an equivalent one with permuted delivery counts —
/// which the classification (all/any/dup over receivers) cannot tell
/// apart.  A case is *canonical* iff the receivers' per-node flip position
/// lists are in non-increasing lexicographic order; returns the orbit size
/// (distinct receiver relabelings) for a canonical case and 0 otherwise.
long long orbit_weight(const std::vector<std::pair<NodeId, int>>& flips,
                       int n_nodes) {
  const int receivers = n_nodes - 1;
  std::vector<std::vector<int>> lists(static_cast<std::size_t>(receivers));
  for (const auto& [node, pos] : flips) {
    if (node >= 1) lists[static_cast<std::size_t>(node - 1)].push_back(pos);
  }
  // Slot enumeration is (node asc, pos asc), so each list is sorted.
  for (int i = 0; i + 1 < receivers; ++i) {
    if (lists[static_cast<std::size_t>(i)] <
        lists[static_cast<std::size_t>(i + 1)]) {
      return 0;  // not canonical: a relabeling with sorted lists exists
    }
  }
  // Orbit size: receivers! / (product over groups of equal lists of
  // group_size!) — equal lists relabel onto themselves.
  long long weight = factorial(receivers);
  int run = 1;
  for (int i = 1; i < receivers; ++i) {
    if (lists[static_cast<std::size_t>(i)] ==
        lists[static_cast<std::size_t>(i - 1)]) {
      ++run;
    } else {
      weight /= factorial(run);
      run = 1;
    }
  }
  weight /= factorial(run);
  return weight;
}

// ---------------------------------------------------------------------------
// the sweep driver
// ---------------------------------------------------------------------------

/// What one first-slot subtree contributes to the result.
struct SubtreeTally {
  long long cases = 0;
  long long imo = 0;
  long long double_rx = 0;
  long long total_loss = 0;
  long long timeouts = 0;
  long long enumerated = 0;
  long long simulated = 0;
  long long symmetry_skips = 0;
  long long admitted = 0;  ///< canonical cases charged to the budget
  bool cut = false;        ///< a further canonical case met a full budget
  std::vector<Counterexample> examples;
};

/// What the subtree tasks of one sweep share.  A max_cases budget admits
/// exactly the first max_cases canonical cases in enumeration order.  Each
/// subtree publishes how many canonical cases it has seen so far; their
/// sum over the subtrees before it bounds from below what they take of the
/// budget, so a subtree stops once that leaves it nothing and never waits
/// for the others.  The merge walks the subtrees in order and re-runs the
/// one the budget runs out in if it admitted more than was left.
class SharedState {
 public:
  SharedState(std::size_t subtrees, long long max_cases)
      : max_cases_(max_cases), seen_(subtrees) {}

  std::atomic<long long> enumerated{0};  ///< global progress counter

  /// The budget the subtrees before `first` leave at most (LLONG_MAX
  /// without a budget); negative once the cut surely lies before `first`.
  [[nodiscard]] long long budget_left(std::size_t first) const {
    if (max_cases_ == 0) return LLONG_MAX;
    long long left = max_cases_;
    for (std::size_t i = 0; i < first; ++i) {
      left -= seen_[i].load(std::memory_order_relaxed);
    }
    return left;
  }

  /// Subtree `first` holds at least `n` canonical cases.
  void saw(std::size_t first, long long n) {
    if (max_cases_ > 0) seen_[first].store(n, std::memory_order_relaxed);
  }

 private:
  const long long max_cases_;
  std::vector<std::atomic<long long>> seen_;
};

/// Visit every combination whose first slot is `first`, admitting the
/// canonical cases the budget leaves it as far as known.
SubtreeTally run_subtree(const ModelCheckConfig& mc, const SweepPlan& plan,
                         const PrefixState* prefix, TailMemo* memo,
                         SharedState& shared, const CheckProgressFn& progress,
                         std::size_t first) {
  SubtreeTally tally;
  const int k = mc.base.errors;
  const auto n_slots = static_cast<long long>(plan.slots.size());
  std::vector<std::pair<NodeId, int>> chosen;
  chosen.reserve(static_cast<std::size_t>(k));

  constexpr long long kProgressStride = 512;
  long long since_progress = 0;

  const auto note_progress = [&](long long batch) {
    const long long done =
        shared.enumerated.fetch_add(batch, std::memory_order_relaxed) + batch;
    if (progress) progress(done, plan.total_combos);
  };

  // Visit every combination extending `chosen` with slots from [start, ..].
  const std::function<void(long long)> recurse = [&](long long start) {
    if (static_cast<int>(chosen.size()) == k) {
      ++tally.enumerated;
      if (++since_progress >= kProgressStride) {
        note_progress(since_progress);
        since_progress = 0;
      }

      long long weight = 1;
      if (mc.symmetry) {
        weight = orbit_weight(chosen, mc.base.n_nodes);
        if (weight == 0) {
          ++tally.symmetry_skips;
          return;
        }
      }

      if (tally.admitted >= shared.budget_left(first)) {
        tally.cut = true;
        shared.saw(first, tally.admitted + 1);
        return;
      }
      shared.saw(first, ++tally.admitted);

      // The window is simulated even on a memo hit.
      const RunEnd end = run_case(plan, prefix, memo, chosen);
      ++tally.simulated;
      const ProbeVerdict out =
          classify_probe(end.deliveries, end.tx_success > 0, !end.quiet);

      tally.cases += weight;
      if (out.imo) tally.imo += weight;
      if (out.dup) tally.double_rx += weight;
      if (out.loss) tally.total_loss += weight;
      if (out.timeout) tally.timeouts += weight;
      if (out.violation() &&
          static_cast<int>(tally.examples.size()) < mc.max_examples) {
        tally.examples.push_back(
            {chosen, describe_probe(out, end.deliveries)});
      }
      return;
    }
    for (long long i = start; i < n_slots; ++i) {
      if (tally.cut) return;
      chosen.push_back(plan.slots[static_cast<std::size_t>(i)]);
      recurse(i + 1);
      chosen.pop_back();
    }
  };

  if (shared.budget_left(first) < 0) return tally;
  chosen.push_back(plan.slots[first]);
  recurse(static_cast<long long>(first) + 1);
  if (since_progress > 0) note_progress(since_progress);
  return tally;
}

}  // namespace

ModelCheckResult run_model_check(const ModelCheckConfig& cfg,
                                 const CheckProgressFn& progress) {
  cfg.validate();
  const SweepPlan plan = make_plan(cfg.base);
  if (cfg.base.errors > static_cast<int>(plan.slots.size())) {
    throw std::invalid_argument(
        "model check: error budget k=" + std::to_string(cfg.base.errors) +
        " exceeds the " + std::to_string(plan.slots.size()) +
        " flip slots of the window");
  }

  const auto t0 = std::chrono::steady_clock::now();

  std::unique_ptr<PrefixState> prefix;
  std::unique_ptr<TailMemo> memo;
  if (cfg.dedup) {
    prefix = std::make_unique<PrefixState>(plan);
    memo = std::make_unique<TailMemo>();
  }

  // One task per first-slot subtree.  Tallies merge in subtree order, so
  // the result does not depend on the jobs value.
  const std::size_t subtrees =
      plan.slots.size() - static_cast<std::size_t>(cfg.base.errors) + 1;
  SharedState shared(subtrees, cfg.max_cases);
  std::vector<SubtreeTally> tallies(subtrees);
  parallel_for(subtrees, cfg.jobs, [&](std::size_t first) {
    tallies[first] = run_subtree(cfg, plan, prefix.get(), memo.get(), shared,
                                 progress, first);
  });

  ModelCheckResult res;
  res.cfg = cfg.base;
  res.cfg.win_hi_rel = plan.win_hi_rel;
  long long left = cfg.max_cases > 0 ? cfg.max_cases : LLONG_MAX;
  for (std::size_t first = 0; first < subtrees; ++first) {
    SubtreeTally& t = tallies[first];
    if (t.admitted > left) {
      // It ran ahead of the subtrees before it.  They have all finished
      // now, so budget_left is exact: redo it with what is left.
      t = run_subtree(cfg, plan, prefix.get(), memo.get(), shared, {}, first);
    }
    left -= t.admitted;
    res.cases += t.cases;
    res.imo += t.imo;
    res.double_rx += t.double_rx;
    res.total_loss += t.total_loss;
    res.timeouts += t.timeouts;
    res.stats.enumerated += t.enumerated;
    res.stats.simulated += t.simulated;
    res.stats.symmetry_skips += t.symmetry_skips;
    for (const Counterexample& ce : t.examples) {
      if (static_cast<int>(res.examples.size()) < cfg.max_examples) {
        res.examples.push_back(ce);
      }
    }
    if (t.cut) {
      res.complete = false;
      break;
    }
  }
  if (memo) {
    // Every lookup that found no entry inserted one, so the lookups beyond
    // the distinct keys are the hits a one-thread sweep makes, whichever
    // thread happened to miss a key first.
    const TailMemoStats memo_stats = memo->stats();
    res.stats.distinct_tails = memo_stats.entries;
    res.stats.tail_memo_hits = memo_stats.hits + memo_stats.misses -
                               static_cast<long long>(memo_stats.entries);
  }
  res.stats.jobs = static_cast<int>(
      std::min(static_cast<std::size_t>(resolve_jobs(cfg.jobs)), subtrees));
  res.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

FlipCaseResult run_flip_case(const ProtocolParams& protocol, int n_nodes,
                             const std::vector<std::pair<NodeId, int>>& flips) {
  // The window only places the clone point and the cut, which a reference
  // run from bit 0 does not use.
  const ProbeEpisode ep = ProbeEpisode::make(protocol, n_nodes, 0, 0);
  const RunEnd end = run_case(ep, nullptr, nullptr, flips);
  FlipCaseResult res{
      classify_probe(end.deliveries, end.tx_success > 0, !end.quiet), {}};
  res.describe = describe_probe(res, end.deliveries);
  return res;
}

std::vector<ProtocolParams> CheckSweep::protocol_set() const {
  return protocols.empty() ? default_protocol_set() : protocols;
}

ProtocolParams CheckSweep::single_protocol() const {
  if (protocols.size() > 1) {
    throw std::invalid_argument(
        "this command targets one protocol; give --protocol once");
  }
  return protocols.empty() ? ProtocolParams::standard_can() : protocols[0];
}

ModelCheckConfig CheckSweep::unit(const ProtocolParams& p, int k) const {
  ModelCheckConfig mc;
  mc.base.protocol = p;
  mc.base.n_nodes = nodes;
  mc.base.errors = k;
  mc.dedup = dedup;
  mc.symmetry = symmetry;
  mc.max_cases = budget;
  return mc;
}

const OptionTable<CheckSweep>& check_sweep_options() {
  static const OptionTable<CheckSweep> table = [] {
    OptionTable<CheckSweep> t;
    t.tokens({"--protocol", "-p", "protocols", "P",
              "sweep protocol P: can|minor|major|major:<m>\n"
              "(repeatable; default: can minor major:3 major:5)"},
             &CheckSweep::protocols, parse_protocol_arg, protocol_token)
        .integer({"--errors", "-k", "max_k", "N",
                  "error budget; sweeps run k = 1..N"},
                 &CheckSweep::max_k, 1, 64)
        .integer({"--nodes", "-n", "nodes", "N", "bus size"},
                 &CheckSweep::nodes, 2, 16)
        .integer({"--budget", "", "budget", "N",
                  "stop each sweep after N cases, 0 = exhaustive"},
                 &CheckSweep::budget, 0, LLONG_MAX)
        .toggle({"--no-dedup", "", "dedup", "",
                 "disable tail memoization + prefix cloning"},
                &CheckSweep::dedup, false)
        .toggle({"--no-symmetry", "", "symmetry", "",
                 "disable receiver-permutation reduction"},
                &CheckSweep::symmetry, false);
    return t;
  }();
  return table;
}

}  // namespace mcan
