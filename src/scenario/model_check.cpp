#include "scenario/model_check.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "analysis/tagged.hpp"
#include "core/network.hpp"
#include "fault/scripted.hpp"
#include "frame/encoder.hpp"
#include "scenario/tail_memo.hpp"
#include "util/parallel.hpp"

namespace mcan {

Frame model_check_frame() {
  return make_tagged_frame(0x100, MsgKind::Data, MessageKey{0, 1});
}

int model_check_eof_start(const ProtocolParams& protocol) {
  const Frame frame = model_check_frame();
  return wire_length(frame, protocol.eof_bits()) - protocol.eof_bits();
}

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

struct CaseOutcome {
  bool imo = false;
  bool dup = false;
  bool loss = false;
  bool timeout = false;
  std::string describe;

  [[nodiscard]] bool violation() const {
    return imo || dup || loss || timeout;
  }
};

/// Reference classification, shared by every execution path.  `deliveries`
/// holds the final per-node delivery counts (index 0 = transmitter,
/// ignored); `tx_success` the transmitter's TxSuccess count.
CaseOutcome classify(int n_nodes, const std::vector<int>& deliveries,
                     int tx_success, bool timeout) {
  CaseOutcome out;
  if (timeout) {
    out.timeout = true;
    out.describe = "TIMEOUT";
    return out;
  }
  bool any = false;
  bool all = true;
  std::string counts;
  for (int i = 1; i < n_nodes; ++i) {
    const int c = deliveries[static_cast<std::size_t>(i)];
    counts += (counts.empty() ? "" : " ") + std::to_string(c);
    if (c > 0) any = true;
    if (c == 0) all = false;
    if (c > 1) out.dup = true;
  }
  const bool sender_has = tx_success > 0;
  out.imo = (any || sender_has) && !all;
  out.loss = !any && sender_has;

  if (out.imo) {
    out.describe = "IMO: deliveries " + counts;
  } else if (out.dup) {
    out.describe = "double reception: deliveries " + counts;
  } else if (out.loss) {
    out.describe = "total loss (tx believed success)";
  }
  return out;
}

/// Per-sweep constants, computed once.
struct SweepPlan {
  ExhaustiveConfig cfg;  ///< window resolved
  Frame frame;
  int eof_start = 0;
  std::vector<std::pair<NodeId, int>> slots;
  BitTime t_first = 0;  ///< absolute time of the earliest possible flip
  BitTime t_cut = 0;    ///< first bit strictly after the flip window
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
  plan.cfg = cfg;
  plan.cfg.win_hi_rel = cfg.window_hi();
  plan.frame = model_check_frame();
  plan.eof_start = model_check_eof_start(cfg.protocol);
  for (int n = 0; n < cfg.n_nodes; ++n) {
    for (int pos = cfg.win_lo_rel; pos <= *plan.cfg.win_hi_rel; ++pos) {
      plan.slots.emplace_back(static_cast<NodeId>(n), pos);
    }
  }
  plan.t_first = static_cast<BitTime>(plan.eof_start + cfg.win_lo_rel);
  plan.t_cut = static_cast<BitTime>(plan.eof_start + *plan.cfg.win_hi_rel + 1);
  plan.total_combos = n_choose_k(plan.slots.size(), cfg.errors);
  return plan;
}

constexpr BitTime kQuietBudget = 30000;

/// Reference execution: fresh bus, full run from bit 0.
CaseOutcome run_full_case(const SweepPlan& plan,
                          const std::vector<std::pair<NodeId, int>>& flips) {
  const ExhaustiveConfig& cfg = plan.cfg;
  Network net(cfg.n_nodes, cfg.protocol);
  ScriptedFaults inj;
  for (const auto& [node, pos] : flips) {
    inj.add(FaultTarget::at_time(
        node, static_cast<BitTime>(plan.eof_start + pos)));
  }
  net.set_injector(inj);
  net.node(0).enqueue(plan.frame);

  const bool quiet = net.run_until_quiet(kQuietBudget);
  std::vector<int> deliveries(static_cast<std::size_t>(cfg.n_nodes), 0);
  for (int i = 0; i < cfg.n_nodes; ++i) {
    deliveries[static_cast<std::size_t>(i)] =
        static_cast<int>(net.deliveries(i).size());
  }
  const int tx_success =
      static_cast<int>(net.log().count(EventKind::TxSuccess, 0));
  return classify(cfg.n_nodes, deliveries, tx_success, !quiet);
}

// ---------------------------------------------------------------------------
// dedup machinery: prefix template + the shared tail memo
// ---------------------------------------------------------------------------

/// The clean-prefix template: a bus stepped (without faults) to t_first,
/// plus the delivery/TxSuccess counts accumulated in that prefix (nonzero
/// when the window starts after the frame's acceptance point).
struct PrefixTemplate {
  Network net;
  std::vector<int> deliveries;
  int tx_success = 0;
  /// The clean bus went quiet before the window opened, where the
  /// reference run stops: cloning would simulate flips it never sees.
  bool quiet_before_window = false;

  explicit PrefixTemplate(const SweepPlan& plan)
      : net(plan.cfg.n_nodes, plan.cfg.protocol) {
    net.node(0).enqueue(plan.frame);
    // The reference stop rule: one step, then quiet() before every step.
    if (plan.t_first > 0) net.sim().step();
    while (net.sim().now() < plan.t_first) {
      quiet_before_window = quiet_before_window || net.quiet();
      net.sim().step();
    }
    deliveries.assign(static_cast<std::size_t>(plan.cfg.n_nodes), 0);
    for (int i = 0; i < plan.cfg.n_nodes; ++i) {
      deliveries[static_cast<std::size_t>(i)] =
          static_cast<int>(net.deliveries(i).size());
    }
    tx_success = static_cast<int>(net.log().count(EventKind::TxSuccess, 0));
  }
};

/// Dedup execution: clone the prefix, simulate only the flip window, then
/// finish from the memoized tail (simulating it on a miss).
CaseOutcome run_dedup_case(const SweepPlan& plan, const PrefixTemplate& tmpl,
                           TailMemo& memo,
                           const std::vector<std::pair<NodeId, int>>& flips) {
  if (tmpl.quiet_before_window) return run_full_case(plan, flips);
  const ExhaustiveConfig& cfg = plan.cfg;

  Network net(cfg.n_nodes, cfg.protocol);
  for (int i = 0; i < cfg.n_nodes; ++i) {
    net.node(i).clone_runtime_state(tmpl.net.node(i));
  }
  net.sim().warp_to(plan.t_first);

  ScriptedFaults inj;
  for (const auto& [node, pos] : flips) {
    inj.add(FaultTarget::at_time(
        node, static_cast<BitTime>(plan.eof_start + pos)));
  }
  net.set_injector(inj);

  // The reference run starts at bit 0; the clone resumes it at t_first.
  const RunEnd end = finish_run(net, 0, kQuietBudget, plan.t_cut, &memo);
  std::vector<int> final_counts(end.deliveries);
  for (std::size_t i = 0; i < final_counts.size(); ++i) {
    final_counts[i] += tmpl.deliveries[i];
  }
  return classify(cfg.n_nodes, final_counts, tmpl.tx_success + end.tx_success,
                  !end.quiet);
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
  std::vector<Counterexample> examples;
};

struct SharedState {
  std::atomic<long long> enumerated{0};     ///< global progress counter
  std::atomic<long long> checked{0};        ///< cases charged to the budget
  std::atomic<bool> stop{false};            ///< budget exhausted
};

/// Visit every combination whose first slot is `first`.
SubtreeTally run_subtree(const ModelCheckConfig& mc, const SweepPlan& plan,
                         const PrefixTemplate* tmpl, TailMemo* memo,
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

      if (mc.max_cases > 0) {
        const long long seq =
            shared.checked.fetch_add(1, std::memory_order_relaxed);
        if (seq >= mc.max_cases) {
          shared.stop.store(true, std::memory_order_relaxed);
          return;
        }
      }

      CaseOutcome out;
      if (mc.dedup) {
        out = run_dedup_case(plan, *tmpl, *memo, chosen);
        ++tally.simulated;  // window simulated even on a memo hit
      } else {
        out = run_full_case(plan, chosen);
        ++tally.simulated;
      }

      tally.cases += weight;
      if (out.imo) tally.imo += weight;
      if (out.dup) tally.double_rx += weight;
      if (out.loss) tally.total_loss += weight;
      if (out.timeout) tally.timeouts += weight;
      if (out.violation() &&
          static_cast<int>(tally.examples.size()) < mc.max_examples) {
        tally.examples.push_back({chosen, out.describe});
      }
      return;
    }
    for (long long i = start; i < n_slots; ++i) {
      if (shared.stop.load(std::memory_order_relaxed)) return;
      chosen.push_back(plan.slots[static_cast<std::size_t>(i)]);
      recurse(i + 1);
      chosen.pop_back();
    }
  };

  if (shared.stop.load(std::memory_order_relaxed)) return tally;
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

  PrefixTemplate* tmpl = nullptr;
  TailMemo* memo = nullptr;
  std::unique_ptr<PrefixTemplate> tmpl_owner;
  std::unique_ptr<TailMemo> memo_owner;
  if (cfg.dedup) {
    tmpl_owner = std::make_unique<PrefixTemplate>(plan);
    memo_owner = std::make_unique<TailMemo>();
    tmpl = tmpl_owner.get();
    memo = memo_owner.get();
  }

  // One task per first-slot subtree.  Tallies merge in subtree order, so
  // a complete sweep reports the same examples for any jobs value.
  const std::size_t subtrees =
      plan.slots.size() - static_cast<std::size_t>(cfg.base.errors) + 1;
  SharedState shared;
  std::vector<SubtreeTally> tallies(subtrees);
  parallel_for(subtrees, cfg.jobs, [&](std::size_t first) {
    tallies[first] =
        run_subtree(cfg, plan, tmpl, memo, shared, progress, first);
  });

  ModelCheckResult res;
  res.cfg = plan.cfg;
  res.complete = !shared.stop.load();
  for (const SubtreeTally& t : tallies) {
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
  }
  if (memo) {
    const TailMemoStats memo_stats = memo->stats();
    res.stats.tail_memo_hits = memo_stats.hits;
    res.stats.distinct_tails = memo_stats.entries;
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
  ExhaustiveConfig cfg;
  cfg.protocol = protocol;
  cfg.n_nodes = n_nodes;
  cfg.errors = static_cast<int>(flips.size());
  SweepPlan plan;
  plan.cfg = cfg;
  plan.frame = model_check_frame();
  plan.eof_start = model_check_eof_start(protocol);
  const CaseOutcome out = run_full_case(plan, flips);
  FlipCaseResult res;
  res.imo = out.imo;
  res.dup = out.dup;
  res.loss = out.loss;
  res.timeout = out.timeout;
  res.describe = out.describe;
  return res;
}

}  // namespace mcan
