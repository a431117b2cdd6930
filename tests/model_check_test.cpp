// Tests of the model-checking engine: every reduction (prefix cloning +
// tail memoization, symmetry, parallel workers) must agree *exactly* with
// the reference enumerator; the counterexample minimizer must reproduce
// the paper's Fig. 3a/3b flip sets; exported .scn scenarios must replay to
// the same verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

#include "analysis/coverage.hpp"
#include "core/fsm_coverage.hpp"
#include "scenario/minimize.hpp"
#include "scenario/model_check.hpp"

namespace {

using namespace mcan;

ModelCheckResult run_engine(const ProtocolParams& proto, int k, int jobs,
                            bool dedup, bool symmetry,
                            long long max_cases = 0) {
  ModelCheckConfig mc;
  mc.base.protocol = proto;
  mc.base.n_nodes = 3;
  mc.base.errors = k;
  mc.jobs = jobs;
  mc.dedup = dedup;
  mc.symmetry = symmetry;
  mc.max_cases = max_cases;
  return run_model_check(mc);
}

void expect_same_counts(const ModelCheckResult& a, const ModelCheckResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.cases, b.cases) << what;
  EXPECT_EQ(a.imo, b.imo) << what;
  EXPECT_EQ(a.double_rx, b.double_rx) << what;
  EXPECT_EQ(a.total_loss, b.total_loss) << what;
  EXPECT_EQ(a.timeouts, b.timeouts) << what;
}

// --- reductions are exact ---------------------------------------------------

TEST(ModelCheck, EveryReductionMatchesReference) {
  // For each protocol and k <= 2: dedup alone, symmetry alone, both, and
  // both with two workers must all reproduce the reference counts.
  for (const auto& proto :
       {ProtocolParams::standard_can(), ProtocolParams::minor_can(),
        ProtocolParams::major_can(3)}) {
    for (int k = 1; k <= 2; ++k) {
      const auto ref = run_engine(proto, k, 1, false, false);
      const std::string tag = proto.name() + " k=" + std::to_string(k);
      expect_same_counts(ref, run_engine(proto, k, 1, true, false),
                         tag + " dedup");
      expect_same_counts(ref, run_engine(proto, k, 1, false, true),
                         tag + " symmetry");
      expect_same_counts(ref, run_engine(proto, k, 1, true, true),
                         tag + " dedup+symmetry");
      expect_same_counts(ref, run_engine(proto, k, 2, true, true),
                         tag + " dedup+symmetry jobs=2");
    }
  }
}

TEST(ModelCheck, DedupStopsWhereTheReferenceStops) {
  // The CAN/MinorCAN window ends at EOF+10, where a clean bus is already
  // idle: the reference run stops there, so the dedup path must apply the
  // same quiescence rule inside the window.  Counts and the complete
  // example lists (flips and per-node delivery text) must agree.
  for (const auto& proto :
       {ProtocolParams::standard_can(), ProtocolParams::minor_can()}) {
    for (int k = 1; k <= 2; ++k) {
      ModelCheckConfig mc;
      mc.base.protocol = proto;
      mc.base.n_nodes = 3;
      mc.base.errors = k;
      mc.jobs = 1;
      mc.symmetry = false;
      mc.max_examples = 1 << 20;
      mc.dedup = false;
      const ModelCheckResult ref = run_model_check(mc);
      mc.dedup = true;
      const ModelCheckResult dedup = run_model_check(mc);
      const std::string tag = proto.name() + " k=" + std::to_string(k);
      expect_same_counts(ref, dedup, tag);
      ASSERT_EQ(ref.examples.size(), dedup.examples.size()) << tag;
      for (std::size_t i = 0; i < ref.examples.size(); ++i) {
        EXPECT_EQ(ref.examples[i].flips, dedup.examples[i].flips)
            << tag << " example " << i;
        EXPECT_EQ(ref.examples[i].outcome, dedup.examples[i].outcome)
            << tag << " example " << i;
      }
    }
  }
}

TEST(ModelCheck, ReferenceModeMatchesRunExhaustive) {
  ExhaustiveConfig cfg;
  cfg.protocol = ProtocolParams::minor_can();
  cfg.n_nodes = 3;
  cfg.errors = 2;
  const ModelCheckResult old = run_exhaustive(cfg);
  const auto eng = run_engine(ProtocolParams::minor_can(), 2, 1, true, true);
  EXPECT_EQ(old.cases, eng.cases);
  EXPECT_EQ(old.imo, eng.imo);
  EXPECT_EQ(old.double_rx, eng.double_rx);
  EXPECT_EQ(old.total_loss, eng.total_loss);
}

TEST(ModelCheck, StatsAccountForAllWork) {
  const auto r = run_engine(ProtocolParams::major_can(5), 2, 1, true, true);
  EXPECT_EQ(r.cases, 2775);
  EXPECT_EQ(r.violations(), 0);
  // Every enumerated combination is either symmetry-folded or checked.
  // Each checked case simulates its flip window (prefix-cloned), so
  // simulated == checked; the memo hits are the subset whose quiescence
  // tail was served from the table instead of being run.
  EXPECT_EQ(r.stats.enumerated, 2775);
  EXPECT_EQ(r.stats.enumerated - r.stats.symmetry_skips, r.stats.simulated);
  EXPECT_LE(r.stats.tail_memo_hits, r.stats.simulated);
  EXPECT_GT(r.stats.tail_memo_hits, 0) << "dedup must actually deduplicate";
  EXPECT_GT(r.stats.symmetry_skips, 0) << "symmetry must actually fold";
  EXPECT_GT(r.stats.distinct_tails, 0u);
}

TEST(ModelCheck, MajorCan5UpToThreeErrorsVerifiedWithReductions) {
  // The dedup-assisted sweep that makes k = 3 at m = 5 routine (67525
  // patterns): the paper's <= m tolerance claim holds for this window.
  const auto r = run_engine(ProtocolParams::major_can(5), 3, 0, true, true);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.cases, 67525);
  EXPECT_EQ(r.violations(), 0) << r.summary();
}

// --- budget -----------------------------------------------------------------

TEST(ModelCheck, BudgetBoundsTheSweep) {
  const auto r =
      run_engine(ProtocolParams::major_can(5), 3, 1, true, true, 500);
  EXPECT_FALSE(r.complete);
  EXPECT_LT(r.stats.simulated + r.stats.tail_memo_hits, 67525);
  EXPECT_NE(r.summary().find("budget"), std::string::npos);
}

void expect_same_sweep(const ModelCheckResult& a, const ModelCheckResult& b,
                       const std::string& what) {
  expect_same_counts(a, b, what);
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.stats.enumerated, b.stats.enumerated) << what;
  EXPECT_EQ(a.stats.simulated, b.stats.simulated) << what;
  EXPECT_EQ(a.stats.symmetry_skips, b.stats.symmetry_skips) << what;
  ASSERT_EQ(a.examples.size(), b.examples.size()) << what;
  for (std::size_t i = 0; i < a.examples.size(); ++i) {
    EXPECT_EQ(a.examples[i].flips, b.examples[i].flips) << what;
    EXPECT_EQ(a.examples[i].outcome, b.examples[i].outcome) << what;
  }
}

TEST(ModelCheck, BudgetCutIndependentOfJobs) {
  // A budget admits the first max_cases canonical cases in enumeration
  // order, whatever the thread count: the cut lands in the same subtree
  // at the same case for jobs 1 and 4.  CAN k=2 has 555 canonical cases.
  for (const long long cap : {1LL, 40LL, 200LL, 554LL, 555LL, 2000LL}) {
    const std::string tag = "cap=" + std::to_string(cap);
    const auto one =
        run_engine(ProtocolParams::standard_can(), 2, 1, true, true, cap);
    EXPECT_EQ(one.stats.simulated, std::min(cap, 555LL)) << tag;
    EXPECT_EQ(one.complete, cap >= 555) << tag;
    for (int rep = 0; rep < 3; ++rep) {
      expect_same_sweep(
          one, run_engine(ProtocolParams::standard_can(), 2, 4, true, true, cap),
          tag + " jobs=4");
    }
  }
  // Without symmetry every combination is canonical.
  const auto one =
      run_engine(ProtocolParams::major_can(5), 3, 1, true, false, 3000);
  EXPECT_FALSE(one.complete);
  EXPECT_EQ(one.stats.simulated, 3000);
  expect_same_sweep(
      one, run_engine(ProtocolParams::major_can(5), 3, 4, true, false, 3000),
      "major5 k=3 no symmetry");
}

TEST(ModelCheck, MemoStatsIndependentOfJobs) {
  // tail_memo_hits counts the cut lookups beyond the distinct tails, so a
  // key two threads both miss still counts one miss.
  const auto one = run_engine(ProtocolParams::minor_can(), 2, 1, true, true);
  for (int rep = 0; rep < 3; ++rep) {
    const auto four = run_engine(ProtocolParams::minor_can(), 2, 4, true, true);
    EXPECT_EQ(one.stats.tail_memo_hits, four.stats.tail_memo_hits);
    EXPECT_EQ(one.stats.distinct_tails, four.stats.distinct_tails);
    expect_same_sweep(one, four, "minor k=2");
  }
}

TEST(ModelCheck, ZeroBudgetMeansExhaustive) {
  const auto r = run_engine(ProtocolParams::standard_can(), 1, 1, true, true);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.cases, 45);
}

TEST(ModelCheck, ExamplesIndependentOfJobs) {
  // Tallies are kept per first-slot subtree and merged in subtree order,
  // so a complete sweep keeps the same examples for any thread count.
  ModelCheckConfig mc;
  mc.base.protocol = ProtocolParams::standard_can();
  mc.base.n_nodes = 3;
  mc.base.errors = 2;
  mc.max_examples = 5;
  mc.jobs = 1;
  const ModelCheckResult one = run_model_check(mc);
  mc.jobs = 4;
  const ModelCheckResult four = run_model_check(mc);
  ASSERT_TRUE(one.complete);
  ASSERT_TRUE(four.complete);
  expect_same_counts(one, four, "CAN k=2 jobs=1 vs jobs=4");
  ASSERT_EQ(one.examples.size(), 5u);
  ASSERT_EQ(one.examples.size(), four.examples.size());
  for (std::size_t i = 0; i < one.examples.size(); ++i) {
    EXPECT_EQ(one.examples[i].flips, four.examples[i].flips) << "example " << i;
    EXPECT_EQ(one.examples[i].outcome, four.examples[i].outcome)
        << "example " << i;
  }
}

// --- progress ---------------------------------------------------------------

TEST(ModelCheck, ProgressCallbackFires) {
  ModelCheckConfig mc;
  mc.base.protocol = ProtocolParams::standard_can();
  mc.base.n_nodes = 3;
  mc.base.errors = 2;
  mc.jobs = 1;
  std::atomic<long long> last_done{0};
  std::atomic<long long> last_total{0};
  const auto r = run_model_check(mc, [&](long long done, long long total) {
    last_done.store(done);
    last_total.store(total);
  });
  EXPECT_EQ(last_total.load(), 990);
  EXPECT_EQ(last_done.load(), r.stats.enumerated);
}

// --- validation -------------------------------------------------------------

TEST(ModelCheck, RejectsMoreErrorsThanSlots) {
  ModelCheckConfig mc;
  mc.base.protocol = ProtocolParams::standard_can();
  mc.base.n_nodes = 3;
  mc.base.errors = 2;
  mc.base.win_lo_rel = 5;
  mc.base.win_hi_rel = 5;  // 3 slots, k = 2 is fine...
  EXPECT_NO_THROW((void)run_model_check(mc));
  mc.base.errors = 4;  // ...but k = 4 cannot pick 4 of 3 slots
  EXPECT_THROW((void)run_model_check(mc), std::invalid_argument);
}

TEST(ModelCheck, RejectsNegativeJobs) {
  ModelCheckConfig mc;
  mc.base.protocol = ProtocolParams::standard_can();
  mc.jobs = -1;
  EXPECT_THROW((void)run_model_check(mc), std::invalid_argument);
}

// --- single-case runner and minimizer ---------------------------------------

TEST(Minimize, Fig3aPatternIsAlreadyMinimal) {
  // The CAN Fig. 3a flip set: transmitter at the last EOF bit, one
  // receiver at the last-but-one.  Minimization must keep both flips.
  const std::vector<std::pair<NodeId, int>> fig3a = {{0, 6}, {1, 5}};
  const auto ce =
      minimize_counterexample(ProtocolParams::standard_can(), 3, fig3a);
  EXPECT_EQ(ce.cls, ViolationClass::Imo);
  EXPECT_EQ(ce.flips.size(), 2u);
}

TEST(Minimize, CanThreeFlipImoMinimizesToFig3a) {
  // Embed the Fig. 3a core in a 3-flip IMO pattern the k=3 sweep reports
  // (the extra transmitter flip at EOF+7 lands harmlessly inside its own
  // error flag); the delta-debugger must strip it and land exactly on the
  // Fig. 3a structure.
  const std::vector<std::pair<NodeId, int>> noisy = {{0, 6}, {0, 7}, {1, 5}};
  const auto ce =
      minimize_counterexample(ProtocolParams::standard_can(), 3, noisy);
  ASSERT_EQ(ce.cls, ViolationClass::Imo);
  ASSERT_EQ(ce.flips.size(), 2u) << "noise flip not removed";
  auto tx = ce.flips[0].first == 0 ? ce.flips[0] : ce.flips[1];
  auto rx = ce.flips[0].first == 0 ? ce.flips[1] : ce.flips[0];
  EXPECT_EQ(tx.first, 0u);
  EXPECT_EQ(tx.second, 6);
  EXPECT_EQ(rx.first, 1u);
  EXPECT_EQ(rx.second, 5);
}

TEST(Minimize, MinorCanFig3bPattern) {
  // MinorCAN's k=2 IMO (Fig. 3b) has the same two-flip shape.
  const std::vector<std::pair<NodeId, int>> fig3b = {{0, 6}, {1, 5}};
  const auto ce =
      minimize_counterexample(ProtocolParams::minor_can(), 3, fig3b);
  EXPECT_EQ(ce.cls, ViolationClass::Imo);
  EXPECT_EQ(ce.flips.size(), 2u);
}

TEST(Minimize, PreservesViolationClassNotJustViolation) {
  // (0,5)+(0,6) on CAN is a double reception whose 1-flip subsets are also
  // double receptions — fine to shrink.  But an IMO pattern must never be
  // "minimized" into a mere double reception: class is preserved.
  const std::vector<std::pair<NodeId, int>> imo = {{0, 6}, {1, 5}};
  const auto ce =
      minimize_counterexample(ProtocolParams::standard_can(), 3, imo);
  EXPECT_EQ(ce.cls, ViolationClass::Imo);
  // Dropping either flip of Fig. 3a leaves no IMO: subsets are not IMO.
  const auto only_tx = classify_flip_pattern(ProtocolParams::standard_can(),
                                             3, {{0, 6}});
  const auto only_rx = classify_flip_pattern(ProtocolParams::standard_can(),
                                             3, {{1, 5}});
  EXPECT_NE(only_tx, ViolationClass::Imo);
  EXPECT_NE(only_rx, ViolationClass::Imo);
}

TEST(Minimize, NonViolatingPatternReturnsNone) {
  const auto ce = minimize_counterexample(ProtocolParams::major_can(5), 3,
                                          {{1, 5}, {2, 6}});
  EXPECT_EQ(ce.cls, ViolationClass::None);
}

// --- .scn export and replay -------------------------------------------------

TEST(ScnExport, Fig3aExportReplaysToSameVerdict) {
  const auto ce = minimize_counterexample(ProtocolParams::standard_can(), 3,
                                          {{0, 6}, {1, 5}});
  ASSERT_EQ(ce.cls, ViolationClass::Imo);
  const std::string text = to_scenario_text(ProtocolParams::standard_can(), 3,
                                            ce, "fig3a roundtrip");
  EXPECT_NE(text.find("expect imo"), std::string::npos);
  EXPECT_NE(text.find("protocol can"), std::string::npos);
  const ReplayResult rr = replay_scenario_text(text);
  EXPECT_TRUE(rr.parsed) << rr.detail;
  EXPECT_TRUE(rr.expectation_met) << rr.detail;
  EXPECT_TRUE(rr.invariants_clean) << rr.detail;
}

TEST(ScnExport, Fig3bExportReplaysToSameVerdict) {
  const auto ce = minimize_counterexample(ProtocolParams::minor_can(), 3,
                                          {{0, 6}, {1, 5}});
  ASSERT_EQ(ce.cls, ViolationClass::Imo);
  const std::string text = to_scenario_text(ProtocolParams::minor_can(), 3,
                                            ce, "fig3b roundtrip");
  const ReplayResult rr = replay_scenario_text(text);
  EXPECT_TRUE(rr.parsed) << rr.detail;
  EXPECT_TRUE(rr.expectation_met) << rr.detail;
  EXPECT_TRUE(rr.invariants_clean) << rr.detail;
}

TEST(ScnExport, DoubleRxExportReplays) {
  const auto ce = minimize_counterexample(ProtocolParams::standard_can(), 3,
                                          {{1, 5}});
  ASSERT_EQ(ce.cls, ViolationClass::DoubleRx);
  const std::string text = to_scenario_text(ProtocolParams::standard_can(), 3,
                                            ce, "fig1b roundtrip");
  EXPECT_NE(text.find("expect double"), std::string::npos);
  const ReplayResult rr = replay_scenario_text(text);
  EXPECT_TRUE(rr.parsed) << rr.detail;
  EXPECT_TRUE(rr.expectation_met) << rr.detail;
}

TEST(ScnExport, EngineExamplesReplayEndToEnd) {
  // Close the loop on engine output: every counterexample the MinorCAN k=2
  // sweep reports must minimize and replay to its own verdict.
  const auto r = run_engine(ProtocolParams::minor_can(), 2, 1, true, true);
  ASSERT_FALSE(r.examples.empty());
  for (const auto& ex : r.examples) {
    const auto ce =
        minimize_counterexample(ProtocolParams::minor_can(), 3, ex.flips);
    ASSERT_NE(ce.cls, ViolationClass::None) << ex.to_string();
    const ReplayResult rr = replay_scenario_text(
        to_scenario_text(ProtocolParams::minor_can(), 3, ce, "engine export"));
    EXPECT_TRUE(rr.parsed && rr.expectation_met) << ex.to_string() << " -> "
                                                 << rr.detail;
  }
}

// --- single-case runner -----------------------------------------------------

TEST(FlipCase, MatchesKnownOutcomes) {
  const auto clean = run_flip_case(ProtocolParams::standard_can(), 3, {});
  EXPECT_FALSE(clean.violation());

  const auto fig1b = run_flip_case(ProtocolParams::standard_can(), 3,
                                   {{1, 5}});
  EXPECT_TRUE(fig1b.dup) << fig1b.describe;

  const auto fig3a = run_flip_case(ProtocolParams::standard_can(), 3,
                                   {{0, 6}, {1, 5}});
  EXPECT_TRUE(fig3a.imo) << fig3a.describe;
  EXPECT_NE(fig3a.describe.find("IMO"), std::string::npos);
}

// --- FSM coverage -----------------------------------------------------------

TEST(FsmCoverage, ExpectedRelationIsVariantSpecific) {
  const auto can = expected_fsm_transitions(Variant::StandardCan);
  const auto minor = expected_fsm_transitions(Variant::MinorCan);
  const auto major = expected_fsm_transitions(Variant::MajorCan);
  EXPECT_EQ(can.size(), minor.size() + 1)
      << "CAN adds only the RxEof->OverloadFlag last-bit edge";
  EXPECT_GT(major.size(), can.size())
      << "MajorCAN adds the sampling/extended-flag end-game";
  // Sampling / ExtFlag are MajorCAN-only states.
  for (const auto& e : can) {
    EXPECT_NE(e.from, FsmState::Sampling);
    EXPECT_NE(e.to, FsmState::ExtFlag);
  }
}

TEST(FsmCoverage, SweepExercisesEndGameTransitions) {
  if (!fsm_coverage_compiled()) {
    GTEST_SKIP() << "built without MCAN_FSM_COVERAGE";
  }
  fsm_coverage::reset();
  (void)run_engine(ProtocolParams::major_can(3), 2, 1, true, true);
  const FsmCoverageReport rep = collect_fsm_coverage(Variant::MajorCan);
  ASSERT_TRUE(rep.instrumented);
  EXPECT_TRUE(rep.unexpected.empty())
      << rep.summary() << "transitions outside the derived FSM contract";
  EXPECT_GT(rep.transition_coverage(), 0.4) << rep.summary();
  // The split-EOF machinery itself must have been exercised.
  EXPECT_GT(fsm_coverage::count(Variant::MajorCan, FsmState::Sampling,
                                FsmState::Delim),
            0u);
  EXPECT_GT(fsm_coverage::count(Variant::MajorCan, FsmState::ExtFlag,
                                FsmState::Delim),
            0u);
}

TEST(FsmCoverage, ResetClearsCounters) {
  if (!fsm_coverage_compiled()) {
    GTEST_SKIP() << "built without MCAN_FSM_COVERAGE";
  }
  (void)run_engine(ProtocolParams::standard_can(), 1, 1, false, false);
  fsm_coverage::reset();
  const auto snap = fsm_coverage::snapshot(Variant::StandardCan);
  EXPECT_TRUE(snap.empty());
}

TEST(FsmCoverage, ReportSerializesToJson) {
  const FsmCoverageReport rep = collect_fsm_coverage(Variant::StandardCan);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"variant\":\"CAN\""), std::string::npos);
  EXPECT_NE(json.find("\"never_exercised\""), std::string::npos);
  EXPECT_NE(json.find("\"transition_coverage\""), std::string::npos);
}

}  // namespace
