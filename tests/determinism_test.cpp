// Determinism regression suite: identical seeds must give byte-identical
// results, serial or parallel, run after run.  This is a hard design
// constraint — the CI gates, the committed reproducers and the paper's
// campaign numbers all rely on (seed, budget) fully determining a run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/engine.hpp"
#include "fuzz/triage.hpp"
#include "scenario/campaign.hpp"
#include "util/rng.hpp"

namespace mcan {
namespace {

// --- RNG streams ---------------------------------------------------------

TEST(Determinism, RngStreamsReproduce) {
  Rng a(5, 3);
  Rng b(5, 3);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u32(), b.next_u32()) << "draw " << i;
  }
  // Different streams of the same seed diverge.
  Rng c(5, 4);
  Rng d(5, 3);
  bool differs = false;
  for (int i = 0; i < 16 && !differs; ++i) differs = c.next_u32() != d.next_u32();
  EXPECT_TRUE(differs);
  // split() is a pure function of (state, tag).
  Rng e(9, 1);
  Rng f(9, 1);
  Rng es = e.split(7);
  Rng fs = f.split(7);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(es.next_u32(), fs.next_u32());
}

// --- randomized campaigns ------------------------------------------------

TEST(Determinism, EofCampaignRepeatsExactly) {
  CampaignConfig cfg;
  cfg.protocol = ProtocolParams::minor_can();
  cfg.n_nodes = 4;
  cfg.trials = 300;
  cfg.errors = 2;
  cfg.seed = 11;
  const auto r1 = run_eof_campaign(cfg);
  const auto r2 = run_eof_campaign(cfg);
  EXPECT_EQ(r1.imo, r2.imo);
  EXPECT_EQ(r1.double_rx, r2.double_rx);
  EXPECT_EQ(r1.total_loss, r2.total_loss);
  EXPECT_EQ(r1.retransmissions, r2.retransmissions);
  EXPECT_EQ(r1.timeouts, r2.timeouts);
}

TEST(Determinism, EofCampaignParallelMatchesSerial) {
  CampaignConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.n_nodes = 3;
  cfg.trials = 300;
  cfg.errors = 2;
  cfg.seed = 23;
  const auto serial = run_eof_campaign(cfg);
  const auto parallel = run_eof_campaign_parallel(cfg, 4);
  EXPECT_EQ(serial.imo, parallel.imo);
  EXPECT_EQ(serial.double_rx, parallel.double_rx);
  EXPECT_EQ(serial.total_loss, parallel.total_loss);
  EXPECT_EQ(serial.retransmissions, parallel.retransmissions);
  EXPECT_EQ(serial.timeouts, parallel.timeouts);
}

TEST(Determinism, EofCampaignTotalsArePinned) {
  // Exact totals, recorded before the campaign moved onto the shared probe
  // verdict.  Random transmitter crashes exercise its crash rule: a
  // crashed sender does not count as having the message (counting it
  // would turn one MinorCAN trial into an omission and a total loss).
  const struct {
    ProtocolParams protocol;
    int imo, double_rx, total_loss, retransmissions, timeouts;
  } pins[] = {{ProtocolParams::standard_can(), 13, 12, 0, 175, 0},
              {ProtocolParams::minor_can(), 1, 1, 0, 169, 0}};
  for (const auto& pin : pins) {
    CampaignConfig cfg;
    cfg.protocol = pin.protocol;
    cfg.n_nodes = 4;
    cfg.trials = 300;
    cfg.errors = 2;
    cfg.seed = 40;
    cfg.crash_tx_randomly = true;
    const CampaignResult r = run_eof_campaign(cfg);
    const std::string tag = pin.protocol.name();
    EXPECT_EQ(r.trials, 300) << tag;
    EXPECT_EQ(r.imo, pin.imo) << tag;
    EXPECT_EQ(r.double_rx, pin.double_rx) << tag;
    EXPECT_EQ(r.total_loss, pin.total_loss) << tag;
    EXPECT_EQ(r.retransmissions, pin.retransmissions) << tag;
    EXPECT_EQ(r.timeouts, pin.timeouts) << tag;
  }
}

// --- the fuzzer ----------------------------------------------------------

FuzzConfig small_campaign(int jobs) {
  FuzzConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.n_nodes = 3;
  cfg.seed = 13;
  cfg.max_execs = 1500;
  cfg.jobs = jobs;
  return cfg;
}

// Everything observable must match; elapsed_s is wall clock and exempt.
void expect_identical(const FuzzResult& a, const FuzzResult& b) {
  EXPECT_EQ(a.stats.execs, b.stats.execs);
  EXPECT_EQ(a.stats.admitted, b.stats.admitted);
  EXPECT_EQ(a.stats.findings, b.stats.findings);
  EXPECT_EQ(a.stats.evicted, b.stats.evicted);
  EXPECT_EQ(a.stats.classes_seen, b.stats.classes_seen);
  EXPECT_EQ(a.stats.corpus_size, b.stats.corpus_size);
  EXPECT_EQ(a.stats.signature_bits, b.stats.signature_bits);
  EXPECT_EQ(a.stats.fsm_transitions, b.stats.fsm_transitions);

  EXPECT_EQ(a.corpus.accumulated(), b.corpus.accumulated());
  ASSERT_EQ(a.corpus.size(), b.corpus.size());
  for (std::size_t i = 0; i < a.corpus.size(); ++i) {
    const auto& ea = a.corpus.entries()[i];
    const auto& eb = b.corpus.entries()[i];
    ASSERT_EQ(ea.spec, eb.spec) << "corpus entry " << i;
    ASSERT_EQ(ea.sig, eb.sig) << "corpus entry " << i;
    ASSERT_EQ(ea.exec_index, eb.exec_index) << "corpus entry " << i;
    ASSERT_EQ(ea.energy, eb.energy) << "corpus entry " << i;
  }

  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    ASSERT_EQ(a.findings[i].spec, b.findings[i].spec) << "finding " << i;
    ASSERT_EQ(a.findings[i].exec_index, b.findings[i].exec_index);
    ASSERT_EQ(a.findings[i].verdict.classes, b.findings[i].verdict.classes);
    ASSERT_EQ(a.findings[i].verdict.sig, b.findings[i].verdict.sig);
  }
}

TEST(Determinism, FuzzCampaignRepeatsExactly) {
  const auto r1 = run_fuzz(small_campaign(1));
  const auto r2 = run_fuzz(small_campaign(1));
  expect_identical(r1, r2);
}

TEST(Determinism, FuzzCampaignIndependentOfJobs) {
  const auto serial = run_fuzz(small_campaign(1));
  const auto parallel = run_fuzz(small_campaign(4));
  expect_identical(serial, parallel);

  // Triage of identical raw findings is itself deterministic, down to the
  // exported reproducer text.
  const auto t1 = triage_findings(serial.findings);
  const auto t2 = triage_findings(parallel.findings);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(export_finding(t1[i], "determinism"),
              export_finding(t2[i], "determinism"));
    EXPECT_EQ(finding_file_name(t1[i]), finding_file_name(t2[i]));
  }
}

}  // namespace
}  // namespace mcan
