// Tests for the rare-event campaign engine (src/rare/): proposal profiles,
// likelihood accounting, trial classification, the splitting engine, and
// the campaign runner's determinism contracts (jobs-independence,
// checkpoint/resume byte-identity) plus its headline acceptance gate —
// the empirical estimate agreeing with expression (4).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "rare/campaign.hpp"

namespace mcan {
namespace {

// --- BiasProfile ---

TEST(BiasProfile, ResolveDefaultsForCan) {
  BiasProfile p;
  p.resolve(ProtocolParams::standard_can());
  EXPECT_EQ(p.win_lo_rel, -2);
  EXPECT_EQ(p.win_hi_rel, 7 + 3);  // EOF + intermission
  ASSERT_EQ(p.tx_hot.size(), 2u);
  EXPECT_EQ(p.tx_hot[0], 5);  // last-but-one EOF bit
  EXPECT_EQ(p.tx_hot[1], 6);  // last EOF bit
  ASSERT_EQ(p.rx_hot.size(), 2u);
  EXPECT_EQ(p.rx_hot[0], 4);
  EXPECT_EQ(p.rx_hot[1], 5);
  EXPECT_NO_THROW(p.validate());
}

TEST(BiasProfile, ResolveDefaultsForMajorCanMatchEndGameHorizon) {
  BiasProfile p;
  p.resolve(ProtocolParams::major_can(5));
  EXPECT_EQ(p.win_hi_rel, 3 * 5 + 5);  // the exhaustive sweeps' auto bound
}

TEST(BiasProfile, ResolveKeepsExplicitWindow) {
  BiasProfile p;
  p.win_lo_rel = -1;
  p.win_hi_rel = 4;
  p.resolve(ProtocolParams::standard_can());
  EXPECT_EQ(p.win_lo_rel, -1);
  EXPECT_EQ(p.win_hi_rel, 4);
}

TEST(BiasProfile, QAddressesRoleAndPosition) {
  BiasProfile p;
  p.resolve(ProtocolParams::standard_can());
  EXPECT_EQ(p.q(true, 6), p.tx_hot_q);    // transmitter hotspot
  EXPECT_EQ(p.q(false, 5), p.rx_hot_q);   // receiver hotspot
  EXPECT_EQ(p.q(true, 3), p.window_q);    // in window, not hot
  EXPECT_EQ(p.q(false, 6), p.window_q);   // 6 is hot for tx only
  EXPECT_EQ(p.q(true, -5), p.base);       // before the window
  EXPECT_EQ(p.q(false, 99), p.base);      // after the window
}

TEST(BiasProfile, ValidateRejectsBadProbabilities) {
  BiasProfile p;
  p.resolve(ProtocolParams::standard_can());
  p.window_q = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  BiasProfile unresolved;  // lo > hi: never resolved
  EXPECT_THROW(unresolved.validate(), std::invalid_argument);
}

// --- BiasedFaults likelihood accounting ---

TEST(BiasedFaults, UnbiasedProfileHasExactlyUnitWeight) {
  const double bs = 1e-3;
  BiasedFaults inj(bs, unbiased_profile(ProtocolParams::standard_can(), bs),
                   100, Rng(42, 0));
  NodeBitInfo info{};
  for (BitTime t = 0; t < 400; ++t) {
    (void)inj.flips(static_cast<NodeId>(t % 3), t, info, Level::Recessive);
  }
  // q == p for every draw, so each term is log(p/p) or log(1-p)-log(1-p):
  // identically zero, not just approximately.
  EXPECT_EQ(inj.llr(), 0.0);
}

TEST(BiasedFaults, CleanPrefixAccountingMatchesForcedDraws) {
  BiasProfile prof;
  prof.resolve(ProtocolParams::standard_can());
  const double bs = 2e-4;
  const int eof_start = 1000;  // window far away: every draw forced clean
  BiasedFaults simulated(bs, prof, eof_start, Rng(1, 0));
  NodeBitInfo info{};
  const long long draws = 321;
  for (long long i = 0; i < draws; ++i) {
    EXPECT_FALSE(simulated.flips(0, static_cast<BitTime>(i), info,
                                 Level::Recessive));
  }
  BiasedFaults accounted(bs, prof, eof_start, Rng(1, 0));
  accounted.account_clean_prefix(draws);
  EXPECT_DOUBLE_EQ(simulated.llr(), accounted.llr());
  EXPECT_DOUBLE_EQ(accounted.llr(),
                   static_cast<double>(draws) * std::log1p(-bs));
}

TEST(BiasedFaults, CleanPrefixRequiresTailOnlyProposal) {
  BiasProfile prof;
  prof.resolve(ProtocolParams::standard_can());
  prof.base = 1e-4;  // flips possible anywhere: prefix cannot be skipped
  BiasedFaults inj(1e-4, prof, 100, Rng(1, 0));
  EXPECT_THROW(inj.account_clean_prefix(10), std::logic_error);
}

// --- ProbePlan / classification ---

TEST(ProbePlan, MakeResolvesTailOnlyGeometry) {
  const ProbePlan plan =
      ProbePlan::make(ProtocolParams::standard_can(), 32, 1e-5, {});
  EXPECT_DOUBLE_EQ(plan.ber_star, 1e-5 / 32);
  EXPECT_GT(plan.eof_start, 0);
  EXPECT_EQ(plan.t_first, static_cast<BitTime>(plan.eof_start - 2));
  EXPECT_EQ(plan.prefix_draws(),
            32LL * static_cast<long long>(plan.t_first));
}

TEST(ProbePlan, MakeRejectsBadParameters) {
  const auto can = ProtocolParams::standard_can();
  EXPECT_THROW((void)ProbePlan::make(can, 1, 1e-5, {}),
               std::invalid_argument);
  EXPECT_THROW((void)ProbePlan::make(can, 32, 0.0, {}),
               std::invalid_argument);
  EXPECT_THROW((void)ProbePlan::make(can, 32, 2.0, {}),
               std::invalid_argument);
  BiasProfile before_frame;
  before_frame.win_lo_rel = -100000;
  before_frame.win_hi_rel = 0;
  EXPECT_THROW((void)ProbePlan::make(can, 32, 1e-5, before_frame),
               std::invalid_argument);
  BiasProfile past_horizon;
  past_horizon.win_lo_rel = 30;
  past_horizon.win_hi_rel = 40;
  EXPECT_THROW((void)ProbePlan::make(can, 32, 1e-5, past_horizon),
               std::invalid_argument);
}

TEST(ClassifyTrial, ReferenceSemantics) {
  // All receivers have it: consistent.
  EXPECT_FALSE(classify_probe({1, 1, 1}, true, false).imo);
  // One receiver lacks it: inconsistent omission.
  EXPECT_TRUE(classify_probe({1, 1, 0}, true, false).imo);
  // Sender believes success, nobody has it: omission AND total loss.
  {
    const ProbeVerdict out = classify_probe({0, 0, 0}, true, false);
    EXPECT_TRUE(out.imo);
    EXPECT_TRUE(out.loss);
  }
  // Nothing delivered, sender never succeeded: no event.
  EXPECT_FALSE(classify_probe({0, 0, 0}, false, false).imo);
  // The sender reported success but crashed, so it does not count as
  // having the message (run_eof_campaign's rule): nobody has it, and that
  // is neither an omission nor a loss.
  {
    const int tx_success = 1;
    const bool tx_crashed = true;
    const ProbeVerdict out =
        classify_probe({0, 0, 0}, tx_success > 0 && !tx_crashed, false);
    EXPECT_FALSE(out.imo);
    EXPECT_FALSE(out.loss);
  }
  // A receiver delivered twice: duplicate.
  EXPECT_TRUE(classify_probe({0, 2, 1}, true, false).dup);
  // Timeout poisons everything else.
  const ProbeVerdict out = classify_probe({0, 1, 0}, true, true);
  EXPECT_TRUE(out.timeout);
  EXPECT_FALSE(out.imo);
}

// --- Trial equivalence: cloning is an optimisation, not a model change ---

TEST(RareTrial, ClonedPrefixMatchesFullSimulationExactly) {
  // The default window, and a late one the clean bus is already quiet by:
  // there the from-bit-0 run never reaches the window.
  BiasProfile late;
  late.win_lo_rel = 10;
  late.win_hi_rel = 17;
  const struct {
    int n;
    BiasProfile bias;
  } inputs[] = {{8, {}}, {3, late}};
  for (const auto& in : inputs) {
    const ProbePlan plan =
        ProbePlan::make(ProtocolParams::standard_can(), in.n, 1e-3, in.bias);
    ASSERT_GT(plan.t_first, 0u);
    const PrefixState prefix(plan);
    ProbePlan full = plan;
    full.t_first = 0;  // simulate the clean prefix bit by bit instead
    for (std::uint64_t i = 0; i < 25; ++i) {
      const TrialOutcome cloned = run_biased_trial(plan, &prefix, Rng(7, i));
      const TrialOutcome direct = run_biased_trial(full, nullptr, Rng(7, i));
      // Forced-clean draws consume no randomness, so the streams align and
      // the runs must agree bit-for-bit — outcome and likelihood both.
      EXPECT_EQ(cloned.imo, direct.imo) << "n=" << in.n << " trial " << i;
      EXPECT_EQ(cloned.dup, direct.dup) << "n=" << in.n << " trial " << i;
      EXPECT_EQ(cloned.timeout, direct.timeout)
          << "n=" << in.n << " trial " << i;
      EXPECT_DOUBLE_EQ(cloned.llr, direct.llr)
          << "n=" << in.n << " trial " << i;
    }
  }
}

// --- Tail memo: finishing trials from the memo is exact ---

/// Runs `trials` trial streams with and without a tail memo and demands
/// identical outcomes and bit-identical likelihood ratios.  Returns the
/// memo's statistics.
TailMemoStats expect_memo_exact(const ProbePlan& plan, int trials,
                                const std::string& tag) {
  const PrefixState prefix(plan);
  TailMemo memo;
  for (int i = 0; i < trials; ++i) {
    const Rng rng(5, static_cast<std::uint64_t>(i));
    const TrialOutcome plain = run_biased_trial(plan, &prefix, rng);
    const TrialOutcome memoised = run_biased_trial(plan, &prefix, rng, &memo);
    EXPECT_EQ(plain.imo, memoised.imo) << tag << " trial " << i;
    EXPECT_EQ(plain.dup, memoised.dup) << tag << " trial " << i;
    EXPECT_EQ(plain.loss, memoised.loss) << tag << " trial " << i;
    EXPECT_EQ(plain.timeout, memoised.timeout) << tag << " trial " << i;
    EXPECT_EQ(std::memcmp(&plain.llr, &memoised.llr, sizeof(double)), 0)
        << tag << " trial " << i << ": " << plain.llr << " vs "
        << memoised.llr;
  }
  return memo.stats();
}

TEST(TailMemo, MemoisedTrialsMatchUnmemoisedExactly) {
  const struct {
    ProtocolParams protocol;
    int n;
  } buses[] = {{ProtocolParams::standard_can(), 32},
               {ProtocolParams::minor_can(), 8},
               {ProtocolParams::major_can(3), 5},
               {ProtocolParams::major_can(5), 16}};
  for (const auto& bus : buses) {
    const ProbePlan plan = ProbePlan::make(bus.protocol, bus.n, 1e-5, {});
    const std::string tag = bus.protocol.name() + " n=" + std::to_string(bus.n);
    const TailMemoStats st = expect_memo_exact(plan, 2000, tag);
    EXPECT_GT(st.hits, 0) << tag;
    EXPECT_GT(st.entries, 0u) << tag;
    EXPECT_LE(static_cast<long long>(st.entries), st.misses) << tag;
  }
}

TEST(TailMemo, BudgetsShorterThanTheWindowTimeOutIdentically) {
  // The CAN window is 13 bits, so the run's last bit (t_first + 1 +
  // budget) falls inside the window, on the cut, one bit past it, and a
  // few bits into the tail: timeouts come from the memo too and must match.
  long long timeouts = 0;
  for (const BitTime budget : {BitTime{5}, BitTime{12}, BitTime{13},
                               BitTime{20}, BitTime{40}}) {
    const ProbePlan plan = ProbePlan::make(ProtocolParams::standard_can(), 8,
                                           1e-3, {}, budget);
    ASSERT_EQ(plan.t_cut() - plan.t_first, 13u);
    const std::string tag = "budget=" + std::to_string(budget);
    (void)expect_memo_exact(plan, 300, tag);
    const PrefixState prefix(plan);
    for (int i = 0; i < 300; ++i) {
      timeouts += run_biased_trial(plan, &prefix,
                                   Rng(5, static_cast<std::uint64_t>(i)))
                      .timeout;
    }
  }
  EXPECT_GT(timeouts, 0);
}

TEST(TailMemo, CampaignJsonIndependentOfJobsAtN32) {
  RareConfig cfg;  // Table 1: CAN, N=32, ber 1e-5
  cfg.trials = 2000;
  cfg.seed = 3;
  cfg.jobs = 1;
  RareResult one = run_campaign(cfg);
  cfg.jobs = 4;
  RareResult four = run_campaign(cfg);
  one.seconds = 0;
  four.seconds = 0;
  EXPECT_EQ(one.to_json(), four.to_json());
  EXPECT_GT(one.tail_memo.hits, 0);
  // The memo is run-local: it never reaches the serialized result.
  EXPECT_EQ(one.to_json().find("memo"), std::string::npos);
}

TEST(Splitting, FactorOneReducesToPlainTrial) {
  const ProbePlan plan =
      ProbePlan::make(ProtocolParams::standard_can(), 8, 1e-3, {});
  const PrefixState prefix(plan);
  SplitParams sp;
  sp.factor = 1;  // crossings never split: one leaf, weight 1
  for (std::uint64_t i = 0; i < 25; ++i) {
    const SplitTrialResult split = run_split_trial(plan, prefix, sp, Rng(3, i));
    const TrialOutcome plain = run_biased_trial(plan, &prefix, Rng(3, i));
    EXPECT_EQ(split.leaves, 1);
    const double expected =
        (plain.timeout || !plain.imo) ? 0.0 : std::exp(plain.llr);
    EXPECT_DOUBLE_EQ(split.x_imo, expected) << "trial " << i;
  }
}

TEST(Splitting, RequiresTailOnlyPlan) {
  BiasProfile prof = unbiased_profile(ProtocolParams::standard_can(), 1e-3);
  const ProbePlan plan =
      ProbePlan::make(ProtocolParams::standard_can(), 4, 4e-3, prof);
  ASSERT_EQ(plan.t_first, 0u);
  const ProbePlan tail =
      ProbePlan::make(ProtocolParams::standard_can(), 4, 4e-3, {});
  const PrefixState prefix(tail);
  EXPECT_THROW((void)run_split_trial(plan, prefix, {}, Rng(1, 0)),
               std::logic_error);
  SplitParams bad;
  bad.factor = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// --- Campaign configuration ---

TEST(RareConfig, ValidateRejectsBadValues) {
  const auto expect_reject = [](auto mutate) {
    RareConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  expect_reject([](RareConfig& c) { c.n_nodes = 1; });
  expect_reject([](RareConfig& c) { c.ber = 0.0; });
  expect_reject([](RareConfig& c) { c.trials = 0; });
  expect_reject([](RareConfig& c) { c.jobs = -1; });
  expect_reject([](RareConfig& c) { c.batch = 0; });
  expect_reject([](RareConfig& c) { c.checkpoint_every = 0; });
  expect_reject([](RareConfig& c) { c.load = 0.0; });
  expect_reject([](RareConfig& c) {
    c.mode = RareMode::kSplitting;
    c.split.factor = 0;
  });
}

TEST(RareConfig, FingerprintTracksTheTrialStream) {
  RareConfig a;
  RareConfig b = a;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Layout knobs do not change the stream.
  b.jobs = 8;
  b.batch = 17;
  b.trials = 999;
  b.checkpoint_every = 5;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Stream-determining knobs do.
  RareConfig c = a;
  c.seed = 2;
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  RareConfig d = a;
  d.ber = 2e-5;
  EXPECT_NE(a.fingerprint(), d.fingerprint());
  RareConfig e = a;
  e.mode = RareMode::kNaive;
  EXPECT_NE(a.fingerprint(), e.fingerprint());
}

// --- Campaign determinism: the shard-independence contract ---

RareConfig small_campaign() {
  RareConfig cfg;
  cfg.ber = 3e-3;  // elevated so hits are plentiful at tiny trial counts
  cfg.trials = 1200;
  cfg.batch = 100;
  cfg.seed = 11;
  return cfg;
}

TEST(RareCampaign, EstimateIndependentOfJobs) {
  RareConfig one = small_campaign();
  one.jobs = 1;
  RareConfig many = small_campaign();
  many.jobs = 8;
  const RareResult a = run_campaign(one);
  const RareResult b = run_campaign(many);
  EXPECT_EQ(a.imo, b.imo);  // accumulator state, bit-for-bit
  EXPECT_EQ(a.dup, b.dup);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_GT(a.imo.hits(), 0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(RareCampaign, ResumeIsByteIdenticalToStraightThrough) {
  const std::string straight = testing::TempDir() + "rare_straight.jnl";
  const std::string resumed = testing::TempDir() + "rare_resumed.jnl";
  std::remove(straight.c_str());
  std::remove(resumed.c_str());

  RareConfig cfg = small_campaign();
  cfg.checkpoint_every = 300;
  cfg.jobs = 4;

  RareConfig full = cfg;
  full.journal = straight;
  const RareResult a = run_campaign(full);

  RareConfig part = cfg;
  part.journal = resumed;
  part.trials = 600;
  (void)run_campaign(part);
  RareConfig rest = cfg;
  rest.journal = resumed;
  const RareResult b = run_campaign(rest);

  EXPECT_EQ(b.resumed_from, 600);
  EXPECT_EQ(a.imo, b.imo);
  EXPECT_EQ(a.dup, b.dup);
  EXPECT_EQ(a.timeouts, b.timeouts);
  // The exact-hex snapshots make the journals byte-identical too.
  EXPECT_EQ(read_file(straight), read_file(resumed));

  // load_campaign restores the same state without simulating.
  const RareResult loaded = load_campaign(rest);
  EXPECT_EQ(loaded.imo, a.imo);
  EXPECT_EQ(loaded.resumed_from, cfg.trials);
}

TEST(RareCampaign, JournalFingerprintMismatchRefusesToResume) {
  const std::string path = testing::TempDir() + "rare_mismatch.jnl";
  std::remove(path.c_str());
  RareConfig cfg = small_campaign();
  cfg.trials = 100;
  cfg.journal = path;
  (void)run_campaign(cfg);
  RareConfig other = cfg;
  other.ber = 1e-3;  // different stream: the journal is not ours
  EXPECT_THROW((void)run_campaign(other), std::runtime_error);
  EXPECT_THROW((void)load_campaign(other), std::runtime_error);
}

TEST(RareCampaign, LoadWithoutJournalThrows) {
  RareConfig cfg = small_campaign();
  EXPECT_THROW((void)load_campaign(cfg), std::runtime_error);
  cfg.journal = testing::TempDir() + "rare_never_written.jnl";
  std::remove(cfg.journal.c_str());
  EXPECT_THROW((void)load_campaign(cfg), std::runtime_error);
}

// --- Statistical correctness (conformance): model vs machine ---

TEST(RareCampaign, ImportanceAndSplittingAgreeAtElevatedBer) {
  RareConfig imp = small_campaign();
  imp.trials = 3000;
  imp.jobs = 4;
  RareConfig spl = imp;
  spl.mode = RareMode::kSplitting;
  const RareResult a = run_campaign(imp);
  const RareResult b = run_campaign(spl);
  const double pa = a.imo_estimate().p_hat;
  const double pb = b.imo_estimate().p_hat;
  ASSERT_GT(pa, 0.0);
  ASSERT_GT(pb, 0.0);
  // Two estimators with different error structure, one target.
  EXPECT_GT(pb / pa, 0.5);
  EXPECT_LT(pb / pa, 2.0);
  // And both near the closed form at this (elevated) ber.
  const double p4 = a.closed_form_p4();
  EXPECT_GT(pa / p4, 0.5);
  EXPECT_LT(pa / p4, 2.0);
}

TEST(RareCampaign, NaiveModeRunsUnweighted) {
  RareConfig cfg = small_campaign();
  cfg.mode = RareMode::kNaive;
  cfg.trials = 300;
  cfg.jobs = 4;
  const RareResult res = run_campaign(cfg);
  const RareEstimate est = res.imo_estimate();
  EXPECT_EQ(est.trials, 300);
  // IMO is invisible to naive MC at these rates, but the Wilson interval
  // still gives an honest upper bound.
  EXPECT_GT(est.ci_hi, 0.0);
  EXPECT_LT(est.ci_hi, 0.1);
}

// The PR's acceptance gate, as a regression test: the empirical estimate
// reproduces expression (4) on the reference bus (N = 32) at a Table-1
// ber, with tight error bars and a variance-reduction factor that makes
// the measurement feasible at all.
TEST(RareCampaign, ReproducesExpressionFourOnReferenceBus) {
  RareConfig cfg;
  cfg.ber = 1e-5;
  cfg.n_nodes = 32;
  cfg.trials = 12000;
  cfg.jobs = 4;
  const RareResult res = run_campaign(cfg);
  const RareEstimate est = res.imo_estimate();
  const double p4 = res.closed_form_p4();
  ASSERT_GT(est.p_hat, 0.0);
  EXPECT_LE(est.rel_halfwidth, 0.25);
  EXPECT_GT(est.p_hat / p4, 0.5) << est.to_string();
  EXPECT_LT(est.p_hat / p4, 2.0) << est.to_string();
  EXPECT_GE(res.variance_reduction(), 1e3);
  // The JSON export carries the numbers the CI gate consumes.
  const std::string json = res.to_json();
  EXPECT_NE(json.find("\"closed_form_p4\""), std::string::npos);
  EXPECT_NE(json.find("\"variance_reduction\""), std::string::npos);
  EXPECT_NE(json.find("\"rel_halfwidth\""), std::string::npos);
}

// --- The rare gates (mcan-rare and mcan-client --expect-*) ---

TEST(RareGate, WithinIsCiAwareAndInclusiveAtTheBoundary) {
  RareEstimate est;
  est.hits = 5;
  est.ci_lo = 1e-9;
  est.ci_hi = 0.25;  // exactly p4 / X
  const RareGate gate{4.0, 0.0};
  EXPECT_EQ(check_rare_gate("test", gate, est, 1.0), 0);
  est.ci_hi = std::nextafter(0.25, 0.0);
  EXPECT_EQ(check_rare_gate("test", gate, est, 1.0), 1);
  est.ci_hi = 100;
  est.ci_lo = 4.0;  // exactly p4 * X
  EXPECT_EQ(check_rare_gate("test", gate, est, 1.0), 0);
  est.ci_lo = std::nextafter(4.0, 5.0);
  EXPECT_EQ(check_rare_gate("test", gate, est, 1.0), 1);
  EXPECT_EQ(check_rare_gate("test", gate, est, 0.0), 1);  // no closed form
}

TEST(RareGate, RelativeCiNeedsHits) {
  RareEstimate est;
  const RareGate gate{0.0, 0.25};
  est.hits = 0;  // rel_halfwidth 0 only because nothing was seen
  EXPECT_EQ(check_rare_gate("test", gate, est, 1.0), 1);
  est.hits = 3;
  est.rel_halfwidth = 0.25;
  EXPECT_EQ(check_rare_gate("test", gate, est, 1.0), 0);
  est.rel_halfwidth = std::nextafter(0.25, 1.0);
  EXPECT_EQ(check_rare_gate("test", gate, est, 1.0), 1);
  EXPECT_EQ(check_rare_gate("test", RareGate{}, est, 1.0), 0);  // gates off
}

TEST(RareGate, ResultJsonGivesTheInProcessVerdicts) {
  const RareResult res = run_campaign(small_campaign());
  Json json;
  std::string err;
  ASSERT_TRUE(Json::parse(res.to_json(), json, err)) << err;
  RareEstimate est;
  double p4 = 0;
  ASSERT_TRUE(rare_gate_inputs(json, est, p4));
  const RareEstimate direct = res.imo_estimate();
  EXPECT_EQ(est.ci_lo, direct.ci_lo);  // %.17g round-trips exactly
  EXPECT_EQ(est.ci_hi, direct.ci_hi);
  EXPECT_EQ(est.rel_halfwidth, direct.rel_halfwidth);
  EXPECT_EQ(est.hits, direct.hits);
  EXPECT_EQ(p4, res.closed_form_p4());
  // Gates on both sides of the estimate, including the exact boundaries.
  const double hi = res.closed_form_p4() / direct.ci_hi;
  const double lo = direct.ci_lo / res.closed_form_p4();
  for (const RareGate gate :
       {RareGate{hi, 0}, RareGate{std::nextafter(hi, 0.0), 0},
        RareGate{lo, 0}, RareGate{1.0001, 0}, RareGate{1e6, 0},
        RareGate{0, direct.rel_halfwidth},
        RareGate{0, std::nextafter(direct.rel_halfwidth, 0.0)},
        RareGate{2, 0.5}}) {
    EXPECT_EQ(check_rare_gate("test", gate, est, p4),
              check_rare_gate("test", gate, direct, res.closed_form_p4()));
  }
  EXPECT_FALSE(rare_gate_inputs(Json::object(), est, p4));
}

}  // namespace
}  // namespace mcan
