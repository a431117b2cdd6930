// Differential certification of the fast kernel (src/sim/fast/) against
// the reference bit loop.  The contract under test: for every workload the
// repo can express — the whole committed scenario corpus (attack and rsm
// scenarios included), fixed-seed fuzz campaigns, rare-event trials, the
// model checker's clone-heavy sweeps, and raw Network runs — the fast
// kernel must produce byte-identical traces, event logs, delivery
// journals, invariant verdicts, oracle classes and campaign accumulators.
// Paranoid mode stays on throughout: every member re-run is digest-checked
// against its group shadow, so a silent divergence fails loudly here
// before it could fail quietly in a campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/network.hpp"
#include "fault/random_faults.hpp"
#include "fault/scripted.hpp"
#include "frame/frame.hpp"
#include "fuzz/engine.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/oracle.hpp"
#include "rare/campaign.hpp"
#include "rare/trial.hpp"
#include "rsm/runner.hpp"
#include "scenario/dsl.hpp"
#include "scenario/model_check.hpp"
#include "scenario/probe.hpp"
#include "sim/fast/fast_kernel.hpp"
#include "sim/kernel.hpp"

namespace mcan {
namespace {

// Restores the process-global kernel selection (and paranoia) on scope
// exit so a failing assertion cannot leak `fast` into unrelated suites.
class ScopedKernel {
 public:
  explicit ScopedKernel(KernelKind k, bool paranoid = false) {
    set_default_kernel(k);
    FastKernel::set_paranoid(paranoid);
  }
  ~ScopedKernel() {
    set_default_kernel(KernelKind::Ref);
    FastKernel::set_paranoid(false);
  }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;
};

/// Run `fn` under the reference kernel, then under the paranoid fast
/// kernel, and hand both results to `check`.
template <typename T>
void differential(const std::function<T()>& fn,
                  const std::function<void(const T&, const T&)>& check) {
  T ref;
  {
    ScopedKernel k(KernelKind::Ref);
    ref = fn();
  }
  T fast;
  {
    ScopedKernel k(KernelKind::Fast, /*paranoid=*/true);
    fast = fn();
  }
  check(ref, fast);
}

/// Compare two runs of `spec`, made with the trace opted in.
void expect_equal_runs(const ScenarioSpec& spec, const DslRunResult& r,
                       const DslRunResult& f) {
  // The rendered timeline is the strongest single check: it covers the
  // full bit-level trace, byte for byte.  RSM runs render none; every other
  // run must, or this comparison would silently shrink to "" == "".
  if (!spec.rsm) {
    ASSERT_FALSE(r.outcome.trace.empty());
  }
  EXPECT_EQ(r.outcome.trace, f.outcome.trace);
  EXPECT_EQ(r.outcome.deliveries, f.outcome.deliveries);
  EXPECT_EQ(r.outcome.tx_success, f.outcome.tx_success);
  EXPECT_EQ(r.outcome.tx_attempts, f.outcome.tx_attempts);
  EXPECT_EQ(r.outcome.tx_crashed, f.outcome.tx_crashed);
  EXPECT_EQ(r.outcome.faults_all_fired, f.outcome.faults_all_fired);
  EXPECT_EQ(r.expectation_met, f.expectation_met) << f.expectation_text;
  EXPECT_EQ(r.quiesced, f.quiesced);
  // Invariant verdicts: same totals, same per-rule breakdown, same span.
  EXPECT_EQ(r.invariants.total, f.invariants.total)
      << "ref:\n" << r.invariants.summary()
      << "fast:\n" << f.invariants.summary();
  EXPECT_EQ(r.invariants.by_rule, f.invariants.by_rule);
  EXPECT_EQ(r.invariants.bits_checked, f.invariants.bits_checked);
  // Atomic-broadcast oracle, field by field.
  EXPECT_EQ(r.ab.broadcasts, f.ab.broadcasts);
  EXPECT_EQ(r.ab.correct_nodes, f.ab.correct_nodes);
  EXPECT_EQ(r.ab.validity_violations, f.ab.validity_violations);
  EXPECT_EQ(r.ab.agreement_violations, f.ab.agreement_violations);
  EXPECT_EQ(r.ab.duplicate_deliveries, f.ab.duplicate_deliveries);
  EXPECT_EQ(r.ab.nontriviality_violations, f.ab.nontriviality_violations);
  EXPECT_EQ(r.ab.order_inversions, f.ab.order_inversions);
  EXPECT_EQ(r.ab.fifo_violations, f.ab.fifo_violations);
  EXPECT_EQ(r.ab.messages_with_duplicates, f.ab.messages_with_duplicates);
  // Attack bookkeeping (all zero for non-attack scenarios).
  EXPECT_EQ(r.attack.glitch_flips, f.attack.glitch_flips);
  EXPECT_EQ(r.attack.busoff_attempts, f.attack.busoff_attempts);
  EXPECT_EQ(r.attack.victim_peak_tec, f.attack.victim_peak_tec);
  EXPECT_EQ(r.attack.busoff_t, f.attack.busoff_t);
  EXPECT_EQ(r.attack.victim_busoff, f.attack.victim_busoff);
  EXPECT_EQ(r.attack.spoofed, f.attack.spoofed);
  EXPECT_EQ(r.attack.spoofed_delivered, f.attack.spoofed_delivered);
}

// --- the whole committed corpus, byte for byte ---------------------------

TEST(SimFastCorpus, EveryShippedScenarioIsBitIdentical) {
  // Enumerate scenarios/ at runtime so a scenario added later is covered
  // the day it lands, with no test edit.
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(MCAN_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scn") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const ScenarioSpec spec = load_scenario_file(path);
    differential<DslRunResult>(
        [&] { return run_any_scenario(spec, {}, /*trace=*/true); },
        [&](const DslRunResult& r, const DslRunResult& f) {
          expect_equal_runs(spec, r, f);
        });
  }
}

// --- raw Network runs: the shared event log, event by event --------------

std::string render_events(Network& net) {
  std::string out;
  for (const Event& e : net.log().events()) {
    out += e.to_string();
    out += '\n';
  }
  return out;
}

struct RawRun {
  std::string events;
  std::vector<std::size_t> deliveries;
  BitTime now = 0;
};

RawRun saturated_run(int n_nodes, const ProtocolParams& proto, double ber,
                     long long bits) {
  Network net(n_nodes, proto);
  RandomFaults inj(ber, Rng(7));
  if (ber > 0) net.set_injector(inj);
  int next = 0;
  for (long long i = 0; i < bits; ++i) {
    if (net.node(0).pending_tx() < 2) {
      net.node(0).enqueue(
          Frame::make_blank(0x100 + static_cast<std::uint32_t>(next++ % 8),
                            8));
    }
    net.sim().step();
  }
  RawRun r;
  r.events = render_events(net);
  for (int i = 0; i < n_nodes; ++i) {
    r.deliveries.push_back(net.deliveries(i).size());
  }
  r.now = net.sim().now();
  return r;
}

void expect_equal_raw(const RawRun& r, const RawRun& f) {
  EXPECT_EQ(r.now, f.now);
  EXPECT_EQ(r.deliveries, f.deliveries);
  EXPECT_EQ(r.events, f.events);
}

TEST(SimFastRaw, SaturatedBusEventLogIsByteIdentical) {
  // The symmetry-group hot path: one transmitter, many identical
  // receivers, stepped per bit as the campaign engines do.
  differential<RawRun>(
      [] { return saturated_run(8, ProtocolParams::standard_can(), 0, 4000); },
      expect_equal_raw);
  differential<RawRun>(
      [] { return saturated_run(8, ProtocolParams::major_can(5), 0, 4000); },
      expect_equal_raw);
}

TEST(SimFastRaw, NoisySaturatedBusEventLogIsByteIdentical) {
  // Random faults consume the per-node RNG streams in attach order; any
  // reordering or skipped draw in the fast kernel diverges within bits.
  differential<RawRun>(
      [] {
        return saturated_run(6, ProtocolParams::major_can(5), 1e-3, 6000);
      },
      expect_equal_raw);
}

TEST(SimFastRaw, BurstRunUnderWordBatchIsByteIdentical) {
  // Deep pre-loaded queue handed to run(): the word-batch regime.
  differential<RawRun>(
      [] {
        Network net(8, ProtocolParams::standard_can());
        for (int i = 0; i < 40; ++i) {
          net.node(0).enqueue(
              Frame::make_blank(0x100 + static_cast<std::uint32_t>(i % 8),
                                8));
        }
        net.sim().run(6000);
        RawRun r;
        r.events = render_events(net);
        for (int i = 0; i < 8; ++i) {
          r.deliveries.push_back(net.deliveries(i).size());
        }
        r.now = net.sim().now();
        return r;
      },
      expect_equal_raw);
}

TEST(SimFastRaw, IdleSkipPreservesClockAndLaterTraffic) {
  // A long idle stretch, then traffic: the idle jump must land on the
  // same clock and leave every node able to pick up the next frame.
  differential<RawRun>(
      [] {
        Network net(4, ProtocolParams::standard_can());
        net.sim().run(10000);
        net.node(2).enqueue(Frame::make_blank(0x2AA, 4));
        net.sim().run(500);
        RawRun r;
        r.events = render_events(net);
        for (int i = 0; i < 4; ++i) {
          r.deliveries.push_back(net.deliveries(i).size());
        }
        r.now = net.sim().now();
        return r;
      },
      expect_equal_raw);
}

TEST(SimFastRaw, ExternalEnqueueOnGroupedReceiverMatches) {
  // Mid-run mutation of a grouped member: enqueueing on a receiver must
  // materialize its shared state and eject it, then win arbitration or
  // queue behind node 0 exactly as the reference does.
  differential<RawRun>(
      [] {
        Network net(6, ProtocolParams::standard_can());
        int next = 0;
        for (long long i = 0; i < 3000; ++i) {
          if (net.node(0).pending_tx() < 2) {
            net.node(0).enqueue(Frame::make_blank(
                0x300 + static_cast<std::uint32_t>(next++ % 4), 8));
          }
          if (i == 700) net.node(3).enqueue(Frame::make_blank(0x050, 2));
          if (i == 1500) net.node(5).enqueue(Frame::make_blank(0x051, 1));
          net.sim().step();
        }
        RawRun r;
        r.events = render_events(net);
        for (int i = 0; i < 6; ++i) {
          r.deliveries.push_back(net.deliveries(i).size());
        }
        r.now = net.sim().now();
        return r;
      },
      expect_equal_raw);
}

TEST(SimFastRaw, CrashInsideGroupMatches) {
  // A scheduled fail-silent crash hits a grouped receiver mid-run; the
  // kernel must eject it at the right bit and keep the survivors grouped.
  differential<RawRun>(
      [] {
        Network net(6, ProtocolParams::major_can(3));
        net.sim().schedule_crash(4, 900);
        net.sim().schedule_crash(0, 2200);
        int next = 0;
        for (long long i = 0; i < 3000; ++i) {
          if (!net.sim().crashed(0) && net.node(0).pending_tx() < 2) {
            net.node(0).enqueue(Frame::make_blank(
                0x200 + static_cast<std::uint32_t>(next++ % 4), 6));
          }
          net.sim().step();
        }
        RawRun r;
        r.events = render_events(net);
        for (int i = 0; i < 6; ++i) {
          r.deliveries.push_back(net.deliveries(i).size());
        }
        r.now = net.sim().now();
        return r;
      },
      expect_equal_raw);
}

TEST(SimFastRaw, ScriptedFlipOnGroupedReceiverMatches) {
  // A position-addressed flip lands on one member of a receiver group:
  // mid-bit ejection, then local-error signalling out of step with the
  // rest of the bus.  This is the paper's IMO trigger geometry.
  differential<RawRun>(
      [] {
        Network net(5, ProtocolParams::standard_can());
        ScriptedFaults inj;
        inj.add(FaultTarget::eof_bit(1, 5));
        inj.add(FaultTarget::eof_bit(0, 6));
        net.set_injector(inj);
        net.node(0).enqueue(Frame::make_blank(0x155, 2));
        net.run_until_quiet();
        for (int i = 0; i < 25; ++i) net.sim().step();
        RawRun r;
        r.events = render_events(net);
        for (int i = 0; i < 5; ++i) {
          r.deliveries.push_back(net.deliveries(i).size());
        }
        r.now = net.sim().now();
        return r;
      },
      expect_equal_raw);
}

// --- fixed-seed fuzz campaigns -------------------------------------------

TEST(SimFastFuzz, FixedSeedCampaignIsBitIdentical) {
  FuzzConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.n_nodes = 3;
  cfg.seed = 21;
  cfg.max_execs = 192;
  cfg.batch = 32;
  cfg.jobs = 1;

  struct Snapshot {
    std::uint64_t execs = 0;
    std::uint32_t classes = 0;
    int signature_bits = 0;
    int fsm_transitions = 0;
    int corpus_size = 0;
    std::vector<std::uint64_t> finding_at;
    std::vector<std::uint32_t> finding_classes;
  };
  differential<Snapshot>(
      [&] {
        const FuzzResult res = run_fuzz(cfg);
        Snapshot s;
        s.execs = res.stats.execs;
        s.classes = res.stats.classes_seen;
        s.signature_bits = res.stats.signature_bits;
        s.fsm_transitions = res.stats.fsm_transitions;
        s.corpus_size = res.stats.corpus_size;
        for (const FuzzFinding& fnd : res.findings) {
          s.finding_at.push_back(fnd.exec_index);
          s.finding_classes.push_back(fnd.verdict.classes);
        }
        return s;
      },
      [](const Snapshot& r, const Snapshot& f) {
        EXPECT_EQ(r.execs, f.execs);
        EXPECT_EQ(r.classes, f.classes);
        EXPECT_EQ(r.signature_bits, f.signature_bits);
        EXPECT_EQ(r.fsm_transitions, f.fsm_transitions);
        EXPECT_EQ(r.corpus_size, f.corpus_size);
        EXPECT_EQ(r.finding_at, f.finding_at);
        EXPECT_EQ(r.finding_classes, f.finding_classes);
      });
}

TEST(SimFastFuzz, OracleVerdictAndSignatureMatchOnSeedCase) {
  const ScenarioSpec spec =
      seed_scenario(ProtocolParams::major_can(5), 4);
  differential<FuzzVerdict>(
      [&] { return run_fuzz_case(spec); },
      [](const FuzzVerdict& r, const FuzzVerdict& f) {
        EXPECT_EQ(r.classes, f.classes) << f.detail;
        EXPECT_EQ(r.sig, f.sig);
      });
}

// --- rare-event campaign accumulators ------------------------------------

TEST(SimFastRare, ImportanceSamplingAccumulatorsMatch) {
  RareConfig cfg;
  cfg.ber = 3e-3;  // elevated so hits are plentiful at tiny trial counts
  cfg.trials = 600;
  cfg.batch = 100;
  cfg.seed = 11;
  cfg.n_nodes = 8;
  differential<RareResult>(
      [&] { return run_campaign(cfg); },
      [](const RareResult& r, const RareResult& f) {
        EXPECT_EQ(r.imo, f.imo);  // accumulator state, bit for bit
        EXPECT_EQ(r.dup, f.dup);
        EXPECT_EQ(r.timeouts, f.timeouts);
        EXPECT_GT(r.imo.hits() + r.dup.hits() + r.timeouts, 0);
      });
}

TEST(SimFastRare, JobsIndependenceHoldsUnderFastKernel) {
  // The serve/worker determinism contract, re-proven on the fast kernel:
  // shard layout must not leak into the estimate.
  ScopedKernel k(KernelKind::Fast, /*paranoid=*/true);
  RareConfig one;
  one.ber = 3e-3;
  one.trials = 600;
  one.batch = 100;
  one.seed = 11;
  one.n_nodes = 8;
  RareConfig many = one;
  one.jobs = 1;
  many.jobs = 4;
  const RareResult a = run_campaign(one);
  const RareResult b = run_campaign(many);
  EXPECT_EQ(a.imo, b.imo);
  EXPECT_EQ(a.dup, b.dup);
  EXPECT_EQ(a.timeouts, b.timeouts);
}

// --- model checker: the clone-heavy prefix-dedup path --------------------

TEST(SimFastModelCheck, CanK2SweepCountsMatch) {
  // Prefix cloning snapshots controllers mid-run (clone_runtime_state),
  // which under the fast kernel must read through group proxies.  The
  // verdict counts of a k=2 CAN sweep pin that path exactly.
  ModelCheckConfig mc;
  mc.base.protocol = ProtocolParams::standard_can();
  mc.base.n_nodes = 3;
  mc.base.errors = 2;
  mc.jobs = 1;

  struct Counts {
    long long cases = 0, imo = 0, double_rx = 0, total_loss = 0,
              timeouts = 0;
  };
  differential<Counts>(
      [&] {
        const ModelCheckResult res = run_model_check(mc);
        return Counts{res.cases, res.imo, res.double_rx, res.total_loss,
                      res.timeouts};
      },
      [](const Counts& r, const Counts& f) {
        EXPECT_EQ(r.cases, f.cases);
        EXPECT_EQ(r.imo, f.imo);
        EXPECT_EQ(r.double_rx, f.double_rx);
        EXPECT_EQ(r.total_loss, f.total_loss);
        EXPECT_EQ(r.timeouts, f.timeouts);
      });
}

// --- the per-thread episode bus -----------------------------------------

/// One leg of a trial sequence: the bus and the kernel it runs under.
struct EpisodeLeg {
  ProtocolParams protocol;
  int n = 0;
  KernelKind kernel = KernelKind::Ref;
};

/// What one leg produces: rare-event trials, then model-checker style
/// cases, each with the event log and machine state the case left behind.
struct LegRuns {
  std::vector<TrialOutcome> trials;
  std::vector<RunEnd> cases;
  std::vector<std::string> case_ends;
};

LegRuns run_leg(const EpisodeLeg& leg) {
  LegRuns out;
  const ProbePlan plan = ProbePlan::make(leg.protocol, leg.n, 1e-3, {});
  const PrefixState prefix(plan);
  TailMemo memo;
  for (std::uint64_t i = 0; i < 30; ++i) {
    out.trials.push_back(run_biased_trial(plan, &prefix, Rng(9, i), &memo));
  }
  // One flip per slot of node 1's window, each run to quiescence on the
  // episode bus (no memo).
  for (int pos = plan.win_lo_rel; pos <= plan.win_hi_rel; ++pos) {
    ScriptedFaults inj({FaultTarget::at_time(
        1, static_cast<BitTime>(plan.eof_start + pos))});
    const EpisodeRun run(plan, &prefix);
    EXPECT_TRUE(run.cloned());
    run.net().set_injector(inj);
    out.cases.push_back(
        finish_run(run.net(), 0, plan.quiet_budget, nullptr, plan.t_cut()));
    std::string end = render_events(run.net());
    for (int i = 0; i < run.net().size(); ++i) {
      run.net().node(i).append_state(end);
      end += "|" + std::to_string(run.net().deliveries(i).size());
    }
    out.case_ends.push_back(end + "@" + std::to_string(run.net().sim().now()));
  }
  return out;
}

TEST(EpisodeBus, ReusedBusMatchesFreshBus) {
  // One thread runs every leg back to back: its episode bus is restarted
  // between runs and rebuilt whenever protocol, N or kernel switch.  The
  // reference runs each leg on a thread of its own, whose first run
  // builds a fresh bus.  Each leg has its own tail memo, filled in the
  // same order on both sides.
  const ProtocolParams can = ProtocolParams::standard_can();
  const std::vector<EpisodeLeg> legs = {
      {can, 8, KernelKind::Ref},
      {can, 8, KernelKind::Ref},
      {can, 8, KernelKind::Fast},
      {ProtocolParams::major_can(3), 5, KernelKind::Fast},
      {ProtocolParams::major_can(3), 5, KernelKind::Ref},
      {ProtocolParams::minor_can(), 8, KernelKind::Ref},
      {can, 32, KernelKind::Ref},
      {can, 8, KernelKind::Ref},
      {ProtocolParams::major_can(5), 16, KernelKind::Fast},
      {can, 8, KernelKind::Fast},
  };
  std::vector<LegRuns> reused(legs.size());
  std::vector<LegRuns> fresh(legs.size());
  std::thread one([&] {
    for (std::size_t i = 0; i < legs.size(); ++i) {
      ScopedKernel k(legs[i].kernel, legs[i].kernel == KernelKind::Fast);
      reused[i] = run_leg(legs[i]);
    }
  });
  one.join();
  for (std::size_t i = 0; i < legs.size(); ++i) {
    ScopedKernel k(legs[i].kernel, legs[i].kernel == KernelKind::Fast);
    std::thread own([&] { fresh[i] = run_leg(legs[i]); });
    own.join();
  }

  long long violations = 0;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    SCOPED_TRACE("leg " + std::to_string(i) + ": " + legs[i].protocol.name() +
                 " n=" + std::to_string(legs[i].n) + " " +
                 kernel_name(legs[i].kernel));
    const LegRuns& r = reused[i];
    const LegRuns& f = fresh[i];
    ASSERT_EQ(r.trials.size(), f.trials.size());
    for (std::size_t t = 0; t < r.trials.size(); ++t) {
      EXPECT_EQ(r.trials[t].imo, f.trials[t].imo) << "trial " << t;
      EXPECT_EQ(r.trials[t].dup, f.trials[t].dup) << "trial " << t;
      EXPECT_EQ(r.trials[t].loss, f.trials[t].loss) << "trial " << t;
      EXPECT_EQ(r.trials[t].timeout, f.trials[t].timeout) << "trial " << t;
      EXPECT_EQ(std::memcmp(&r.trials[t].llr, &f.trials[t].llr,
                            sizeof(double)),
                0)
          << "trial " << t;
      violations += r.trials[t].violation();
    }
    ASSERT_EQ(r.cases.size(), f.cases.size());
    for (std::size_t c = 0; c < r.cases.size(); ++c) {
      EXPECT_EQ(r.cases[c].deliveries, f.cases[c].deliveries) << "case " << c;
      EXPECT_EQ(r.cases[c].tx_success, f.cases[c].tx_success) << "case " << c;
      EXPECT_EQ(r.cases[c].quiet, f.cases[c].quiet) << "case " << c;
      EXPECT_EQ(r.cases[c].skipped_draws, f.cases[c].skipped_draws)
          << "case " << c;
      EXPECT_EQ(r.case_ends[c], f.case_ends[c]) << "case " << c;
    }
  }
  EXPECT_GT(violations, 0) << "the legs should reach some violations";
}

TEST(EpisodeBus, NestedRunsOnOneThreadAreRejected) {
  const ProbePlan plan =
      ProbePlan::make(ProtocolParams::standard_can(), 4, 1e-3, {});
  const PrefixState prefix(plan);
  const EpisodeRun outer(plan, &prefix);
  EXPECT_THROW(EpisodeRun(plan, &prefix), std::logic_error);
  // A run without a usable prefix builds its own bus.
  const EpisodeRun bit0(plan, nullptr);
  EXPECT_FALSE(bit0.cloned());
}

}  // namespace
}  // namespace mcan
