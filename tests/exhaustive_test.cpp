// Bounded exhaustive verification as tests: complete enumeration of all
// error patterns in the frame-tail window for a 3-node bus.  A passing
// MajorCAN case here is a *proof* for that (window, bus size, budget) —
// the model checking the paper planned as future work.
#include <gtest/gtest.h>

#include <stdexcept>

#include "scenario/exhaustive.hpp"

namespace {

using namespace mcan;

ModelCheckResult verify(ProtocolParams proto, int errors) {
  ExhaustiveConfig cfg;
  cfg.protocol = proto;
  cfg.n_nodes = 3;
  cfg.errors = errors;
  return run_exhaustive(cfg);
}

TEST(Exhaustive, MajorCan3FullBudgetVerified) {
  // MajorCAN_3 tolerates up to m = 3 errors: verify the *entire* claim for
  // this bus size and window — every 1-, 2- and 3-flip pattern.
  for (int k = 1; k <= 3; ++k) {
    auto res = verify(ProtocolParams::major_can(3), k);
    EXPECT_EQ(res.violations(), 0) << res.summary();
    EXPECT_GT(res.cases, 0);
  }
}

TEST(Exhaustive, MajorCan5UpToTwoErrorsVerified) {
  for (int k = 1; k <= 2; ++k) {
    auto res = verify(ProtocolParams::major_can(5), k);
    EXPECT_EQ(res.violations(), 0) << res.summary();
  }
}

TEST(Exhaustive, StandardCanSingleErrorOnlyDuplicates) {
  auto res = verify(ProtocolParams::standard_can(), 1);
  EXPECT_EQ(res.imo, 0) << "one error cannot split standard CAN";
  EXPECT_GT(res.double_rx, 0) << "but Fig. 1b double reception exists";
  EXPECT_EQ(res.total_loss, 0);
  // Exactly: one per receiver hitting its last-but-one EOF bit, plus the
  // transmitter patterns that force a retransmission everyone re-receives.
  ASSERT_FALSE(res.examples.empty());
}

TEST(Exhaustive, StandardCanTwoErrorsContainFig3a) {
  auto res = verify(ProtocolParams::standard_can(), 2);
  EXPECT_GT(res.imo, 0)
      << "the enumerator must rediscover the paper's new scenario: "
      << res.summary();
}

TEST(Exhaustive, MinorCanSingleErrorFullyClean) {
  auto res = verify(ProtocolParams::minor_can(), 1);
  EXPECT_EQ(res.violations(), 0)
      << "MinorCAN fixes every single-error pattern: " << res.summary();
}

TEST(Exhaustive, MinorCanTwoErrorsContainFig3b) {
  auto res = verify(ProtocolParams::minor_can(), 2);
  EXPECT_GT(res.imo, 0) << res.summary();
  EXPECT_LT(res.imo + res.double_rx,
            verify(ProtocolParams::standard_can(), 2).imo +
                verify(ProtocolParams::standard_can(), 2).double_rx)
      << "MinorCAN strictly reduces the violating pattern count";
}

TEST(Exhaustive, CanTwoErrorImoPatternsAreExactlyFig3a) {
  // On a 3-node bus there are exactly two 2-error IMO patterns for
  // standard CAN, and they are precisely the paper's Fig. 3a: one receiver
  // hit in the last-but-one EOF bit (0-based 5) plus the transmitter's
  // view of the last bit (0-based 6) flipped.
  ExhaustiveConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.n_nodes = 3;
  cfg.errors = 2;
  auto res = run_exhaustive(cfg, 1000);

  std::vector<Counterexample> imos;
  for (const Counterexample& ce : res.examples) {
    if (ce.outcome.find("IMO") != std::string::npos) imos.push_back(ce);
  }
  ASSERT_EQ(imos.size(), 2u) << res.summary();
  for (const Counterexample& ce : imos) {
    ASSERT_EQ(ce.flips.size(), 2u);
    // Sort: transmitter flip and receiver flip.
    auto tx_flip = ce.flips[0].first == 0 ? ce.flips[0] : ce.flips[1];
    auto rx_flip = ce.flips[0].first == 0 ? ce.flips[1] : ce.flips[0];
    EXPECT_EQ(tx_flip.first, 0u) << ce.to_string();
    EXPECT_EQ(tx_flip.second, 6) << "transmitter misses the flag in the "
                                    "last EOF bit: " << ce.to_string();
    EXPECT_TRUE(rx_flip.first == 1 || rx_flip.first == 2);
    EXPECT_EQ(rx_flip.second, 5) << "receiver phantom in the last-but-one "
                                    "EOF bit: " << ce.to_string();
  }
}

TEST(Exhaustive, CounterexamplesCarryFlipPositions) {
  auto res = verify(ProtocolParams::standard_can(), 1);
  ASSERT_FALSE(res.examples.empty());
  const std::string s = res.examples.front().to_string();
  EXPECT_NE(s.find("node"), std::string::npos);
  EXPECT_NE(s.find("EOF"), std::string::npos);
  EXPECT_NE(s.find("=>"), std::string::npos);
}

TEST(Exhaustive, WindowDefaultsDependOnProtocol) {
  ExhaustiveConfig cfg;
  cfg.protocol = ProtocolParams::major_can(5);
  EXPECT_EQ(cfg.window_hi(), 3 * 5 + 5);
  cfg.protocol = ProtocolParams::standard_can();
  EXPECT_EQ(cfg.window_hi(), 7 + 3);
}

TEST(Exhaustive, ExplicitWindowOverridesAuto) {
  ExhaustiveConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.win_hi_rel = 4;
  EXPECT_EQ(cfg.window_hi(), 4);
  cfg.win_hi_rel.reset();
  EXPECT_EQ(cfg.window_hi(), 10);  // back to the auto default
}

TEST(ExhaustiveValidate, RejectsEmptyWindow) {
  ExhaustiveConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.win_lo_rel = 6;
  cfg.win_hi_rel = 3;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ExhaustiveValidate, RejectsWindowPastEndGameHorizon) {
  ExhaustiveConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.win_hi_rel = 500;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ExhaustiveValidate, RejectsWindowBeforeFrameStart) {
  ExhaustiveConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.win_lo_rel = -10000;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ExhaustiveValidate, RejectsBadBusSizeAndBudget) {
  ExhaustiveConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.n_nodes = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.n_nodes = 3;
  cfg.errors = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ExhaustiveValidate, AcceptsDefaultsForAllProtocols) {
  for (const auto& proto :
       {ProtocolParams::standard_can(), ProtocolParams::minor_can(),
        ProtocolParams::major_can(3), ProtocolParams::major_can(5)}) {
    ExhaustiveConfig cfg;
    cfg.protocol = proto;
    EXPECT_NO_THROW(cfg.validate()) << proto.name();
  }
}

}  // namespace
