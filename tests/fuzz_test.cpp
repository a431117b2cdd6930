// Tests for the coverage-guided fuzzing subsystem (src/fuzz/): signatures,
// oracle classification, mutation bounds, corpus management, ddmin triage,
// and the end-to-end acceptance campaigns — fixed-seed runs that rediscover
// the paper's k=2 IMO counterexamples for CAN and MinorCAN, and a MajorCAN_5
// run restricted to the <= m frame-tail envelope that must come back clean.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/engine.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/triage.hpp"

namespace mcan {
namespace {

// --- signatures ----------------------------------------------------------

TEST(FuzzSignature, MergeContainsNewBits) {
  Signature a;
  a.set_transition(FsmState::Idle, FsmState::Rx);
  a.set_feature(Signature::kDeliveredAll);
  EXPECT_EQ(a.popcount(), 2);
  EXPECT_EQ(a.fsm_popcount(), 1);

  Signature b;
  b.set_transition(FsmState::Idle, FsmState::Rx);
  b.set_transition(FsmState::Rx, FsmState::Idle);
  EXPECT_EQ(a.new_bits(b), 1);
  EXPECT_FALSE(a.contains(b));

  EXPECT_EQ(a.merge(b), 1);
  EXPECT_TRUE(a.contains(b));
  EXPECT_EQ(a.new_bits(b), 0);
  EXPECT_EQ(a.merge(b), 0);  // idempotent
  EXPECT_EQ(a.popcount(), 3);
  EXPECT_TRUE(a.feature(Signature::kDeliveredAll));
  EXPECT_FALSE(a.feature(Signature::kDeliveredNone));
  EXPECT_FALSE(a.to_hex().empty());
}

TEST(FuzzSignature, ScopedSinkCapturesTransitions) {
  // A clean run must light up FSM transition bits and the variant feature.
  const auto spec = seed_scenario(ProtocolParams::standard_can(), 3);
  const FuzzVerdict v = run_fuzz_case(spec);
  EXPECT_EQ(v.classes, 0u) << v.detail;
  EXPECT_GT(v.sig.fsm_popcount(), 0);
  EXPECT_TRUE(v.sig.feature(Signature::kVariantBase +
                            static_cast<int>(Variant::StandardCan)));
  EXPECT_TRUE(v.sig.feature(Signature::kDeliveredAll));

  // Without an installed sink, nothing leaks between runs: a second capture
  // sees the same bits, not an accumulation.
  const FuzzVerdict v2 = run_fuzz_case(spec);
  EXPECT_EQ(v.sig, v2.sig);
}

// --- class names and parsing ---------------------------------------------

TEST(FuzzOracle, ParseClasses) {
  std::uint32_t mask = 0;
  std::string err;
  ASSERT_TRUE(parse_fuzz_classes("imo", mask, err)) << err;
  EXPECT_EQ(mask, fuzz_class_bit(FuzzClass::Agreement));
  ASSERT_TRUE(parse_fuzz_classes("double,order", mask, err)) << err;
  EXPECT_EQ(mask,
            fuzz_class_bit(FuzzClass::Duplicate) | fuzz_class_bit(FuzzClass::Order));
  ASSERT_TRUE(parse_fuzz_classes("none", mask, err)) << err;
  EXPECT_EQ(mask, 0u);
  EXPECT_FALSE(parse_fuzz_classes("bogus", mask, err));
  EXPECT_NE(err.find("bogus"), std::string::npos);

  EXPECT_EQ(fuzz_classes_to_string(0), "none");
  EXPECT_EQ(fuzz_classes_to_string(fuzz_class_bit(FuzzClass::Agreement) |
                                   fuzz_class_bit(FuzzClass::Invariant)),
            "agreement+invariant");
}

TEST(FuzzOracle, ClassifiesCommittedCounterexamples) {
  // The model checker's CAN k=2 IMO certificate is an Agreement finding.
  auto imo = load_scenario_file(std::string(MCAN_SCENARIO_DIR) +
                                "/modelcheck_can_k2_imo.scn");
  const FuzzVerdict v1 = run_fuzz_case(imo);
  EXPECT_TRUE(v1.classes & fuzz_class_bit(FuzzClass::Agreement)) << v1.detail;
  EXPECT_EQ(v1.primary(), FuzzClass::Agreement);
  EXPECT_FALSE(v1.detail.empty());

  // Fig 1b's double reception is a Duplicate finding.
  auto dbl = load_scenario_file(std::string(MCAN_SCENARIO_DIR) +
                                "/fig1b_double_reception.scn");
  const FuzzVerdict v2 = run_fuzz_case(dbl);
  EXPECT_TRUE(v2.classes & fuzz_class_bit(FuzzClass::Duplicate)) << v2.detail;
}

// --- mutation engine -----------------------------------------------------

TEST(FuzzMutate, SeedScenarioIsCleanAndInBounds) {
  const FuzzBounds b;
  for (auto proto : {ProtocolParams::standard_can(), ProtocolParams::minor_can(),
                     ProtocolParams::major_can(5)}) {
    auto spec = seed_scenario(proto, 3);
    EXPECT_TRUE(scenario_in_bounds(spec, b));
    EXPECT_TRUE(spec.flips.empty());
    const FuzzVerdict v = run_fuzz_case(spec);
    EXPECT_EQ(v.classes, 0u) << v.detail;
  }
}

TEST(FuzzMutate, MutationsStayInBounds) {
  FuzzBounds b;
  b.mutate_protocol = true;  // open the full genome space
  Rng rng(42, 0);
  ScenarioSpec spec = seed_scenario(ProtocolParams::standard_can(), 3);
  for (int i = 0; i < 2000; ++i) {
    spec = mutate_scenario(spec, b, rng);
    ASSERT_TRUE(scenario_in_bounds(spec, b)) << "after mutation " << i;
    ASSERT_NO_THROW(spec.protocol.validate());
    // Canonical round-trip form: every mutated genome is a valid data file.
    ASSERT_EQ(parse_scenario(write_scenario(spec)), spec);
  }
}

TEST(FuzzMutate, EnvelopeBoundsAreRespected) {
  FuzzBounds b;
  b.max_flips = 5;  // MajorCAN_5's tolerance
  b.allow_body = false;
  b.allow_crash = false;
  b.mutate_protocol = false;
  Rng rng(7, 1);
  ScenarioSpec spec = seed_scenario(ProtocolParams::major_can(5), 3);
  for (int i = 0; i < 1000; ++i) {
    spec = mutate_scenario(spec, b, rng);
    ASSERT_LE(spec.flips.size(), 5u);
    ASSERT_FALSE(spec.crash.has_value());
    ASSERT_EQ(spec.protocol.variant, Variant::MajorCan);
    ASSERT_EQ(spec.protocol.m, 5);
    for (const auto& f : spec.flips) {
      ASSERT_FALSE(f.seg.has_value() && *f.seg == Seg::Body)
          << "body flip under allow_body=false";
    }
  }
}

TEST(FuzzMutate, SanitizeIsIdempotent) {
  const FuzzBounds b;
  Rng rng(3, 9);
  ScenarioSpec spec = seed_scenario(ProtocolParams::minor_can(), 4);
  for (int i = 0; i < 500; ++i) {
    spec = mutate_scenario(spec, b, rng);
    ScenarioSpec again = spec;
    sanitize_scenario(again, b);
    ASSERT_EQ(again, spec) << "sanitize moved an already-sanitized genome";
  }
}

// --- corpus --------------------------------------------------------------

TEST(FuzzCorpus, AdmissionRequiresNovelty) {
  Corpus c;
  Signature s1;
  s1.set_feature(Signature::kDeliveredAll);
  const auto spec = seed_scenario(ProtocolParams::standard_can(), 3);
  EXPECT_TRUE(c.admit(spec, s1, 0));
  EXPECT_FALSE(c.admit(spec, s1, 1));  // nothing new
  Signature s2 = s1;
  s2.set_feature(Signature::kRetransmit);
  EXPECT_TRUE(c.admit(spec, s2, 2));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.accumulated().popcount(), 2);

  Rng rng(1, 0);
  for (int i = 0; i < 10; ++i) {
    (void)c.select(rng);  // never out of range
  }
}

TEST(FuzzCorpus, MinimizeKeepsCoverage) {
  Corpus c;
  const auto spec = seed_scenario(ProtocolParams::standard_can(), 3);
  // Entry 0 covered by entry 2's superset signature; entry 1 unique.
  Signature a, b, ab;
  a.set_feature(Signature::kDeliveredAll);
  b.set_feature(Signature::kDeliveredNone);
  ab.set_feature(Signature::kDeliveredAll);
  ab.set_feature(Signature::kRetransmit);
  EXPECT_TRUE(c.admit(spec, a, 0));
  EXPECT_TRUE(c.admit(spec, b, 1));
  EXPECT_TRUE(c.admit(spec, ab, 2));
  const int before = c.accumulated().popcount();
  EXPECT_EQ(c.minimize(), 1);  // `a` is redundant under `ab`
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.accumulated().popcount(), before);
  Signature covered;
  for (const auto& e : c.entries()) covered.merge(e.sig);
  EXPECT_TRUE(covered.contains(c.accumulated()));
}

TEST(FuzzCorpus, SaveLoadRoundTrip) {
  Corpus c;
  ScenarioSpec s1 = seed_scenario(ProtocolParams::standard_can(), 3);
  ScenarioSpec s2 = s1;
  s2.flips.push_back(FaultTarget::eof_bit(0, 6));
  s2.flips.push_back(FaultTarget::eof_bit(1, 5));
  c.admit(s1, run_fuzz_case(s1).sig, 0);
  c.admit(s2, run_fuzz_case(s2).sig, 1);
  ASSERT_EQ(c.size(), 2u);

  const std::string dir = testing::TempDir() + "fuzz_corpus_rt";
  std::filesystem::remove_all(dir);
  EXPECT_EQ(save_corpus(c, dir), 2);

  Corpus reloaded;
  EXPECT_EQ(load_corpus_dir(reloaded, dir), 2);
  ASSERT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.entries()[0].spec, c.entries()[0].spec);
  EXPECT_EQ(reloaded.entries()[1].spec, c.entries()[1].spec);
  EXPECT_EQ(reloaded.accumulated(), c.accumulated());
  std::filesystem::remove_all(dir);

  Corpus empty_dir;
  EXPECT_EQ(load_corpus_dir(empty_dir, dir + "-missing"), 0);
}

// --- triage --------------------------------------------------------------

TEST(FuzzTriage, DdminStripsRedundantGenome) {
  // The Fig 3a IMO core, padded with provably redundant material: a flip
  // during bus idle, a crash long after quiescence, and a third node
  // nothing references once those are gone.
  auto fat = parse_scenario(R"(
protocol can
nodes 3
frame id=0x100 dlc=4
flip node=0 eof=6
flip node=1 eof=5
flip node=1 t=250
crash node=2 t=5000
)");
  ASSERT_TRUE(run_fuzz_case(fat).classes & fuzz_class_bit(FuzzClass::Agreement));

  const ScenarioSpec min = minimize_finding(fat, FuzzClass::Agreement);
  EXPECT_TRUE(run_fuzz_case(min).classes &
              fuzz_class_bit(FuzzClass::Agreement));
  EXPECT_FALSE(min.crash.has_value());
  EXPECT_TRUE(min.traffic.empty());
  EXPECT_EQ(min.n_nodes, 2);
  ASSERT_EQ(min.flips.size(), 2u);
  // Canonical order: sorted by node.  The pattern is the paper's Fig 3a
  // {tx @ EOF+6, rx @ EOF+5} certificate.
  EXPECT_EQ(min.flips[0], FaultTarget::eof_bit(0, 6));
  EXPECT_EQ(min.flips[1], FaultTarget::eof_bit(1, 5));
}

TEST(FuzzTriage, DedupesAcrossGenomeVariants) {
  // Two raw findings that minimize to the same canonical genome collapse
  // into one reproducer carrying both raw counts.
  auto base = parse_scenario(
      "protocol can\nnodes 3\nflip node=0 eof=6\nflip node=1 eof=5\n");
  auto fat = base;
  fat.crash = {{2, 5000}};

  std::vector<FuzzFinding> raw;
  raw.push_back({base, run_fuzz_case(base), 10});
  raw.push_back({fat, run_fuzz_case(fat), 20});
  ASSERT_TRUE(raw[0].verdict.violation());
  ASSERT_TRUE(raw[1].verdict.violation());

  const auto triaged = triage_findings(raw);
  ASSERT_EQ(triaged.size(), 1u);
  EXPECT_EQ(triaged[0].cls, FuzzClass::Agreement);
  EXPECT_EQ(triaged[0].raw_count, 2);
  EXPECT_EQ(triaged[0].exec_index, 10u);
  EXPECT_TRUE(triaged[0].replay_ok);
  // The legacy `expect imo` clause needs >= 2 receivers to describe a
  // delivery split; the 2-node minimized genome keeps the oracle-neutral
  // `expect any` instead.
  EXPECT_EQ(triaged[0].spec.expect, Expectation::Any);

  const std::string text = export_finding(triaged[0], "unit test");
  EXPECT_NE(text.find("replay-verified"), std::string::npos);
  const auto reparsed = parse_scenario(text);
  EXPECT_TRUE(run_fuzz_case(reparsed).classes &
              fuzz_class_bit(FuzzClass::Agreement));
}

// --- acceptance: the ISSUE's fixed-seed campaigns ------------------------

// Shared helper: run a campaign and triage its findings.
struct CampaignOutcome {
  FuzzResult result;
  std::vector<TriagedFinding> triaged;
};

CampaignOutcome run_campaign(const ProtocolParams& proto, std::uint64_t seed,
                             std::uint64_t execs, const FuzzBounds& bounds) {
  FuzzConfig cfg;
  cfg.protocol = proto;
  cfg.n_nodes = 3;
  cfg.seed = seed;
  cfg.max_execs = execs;
  cfg.jobs = 2;
  cfg.bounds = bounds;
  CampaignOutcome out;
  out.result = run_fuzz(cfg);
  out.triaged = triage_findings(out.result.findings);
  return out;
}

// True iff `f` is the paper's k=2 frame-tail IMO: two EOF flips, the
// transmitter's at position 6, a receiver's at position 5, nothing else.
bool is_fig3_certificate(const TriagedFinding& f) {
  if (f.cls != FuzzClass::Agreement || !f.replay_ok) return false;
  const auto& s = f.spec;
  if (s.crash || !s.traffic.empty() || s.flips.size() != 2) return false;
  const auto& a = s.flips[0];
  const auto& b = s.flips[1];
  auto eof_at = [](const FaultTarget& t, NodeId node, int pos) {
    return t == FaultTarget::eof_bit(node, pos);
  };
  // Canonical sort puts the transmitter (node 0) first.
  return eof_at(a, 0, 6) && b.seg == Seg::Eof && b.index == 5 && b.node != 0;
}

TEST(FuzzEngine, RejectsNegativeJobs) {
  FuzzConfig cfg;
  cfg.max_execs = 8;
  cfg.jobs = -1;
  EXPECT_THROW((void)run_fuzz(cfg), std::invalid_argument);
}

TEST(FuzzAcceptance, RediscoversCanImoWithinBudget) {
  auto out = run_campaign(ProtocolParams::standard_can(), 1, 6000, {});
  EXPECT_TRUE(out.result.stats.classes_seen &
              fuzz_class_bit(FuzzClass::Agreement));
  bool found = false;
  for (const auto& f : out.triaged) found = found || is_fig3_certificate(f);
  EXPECT_TRUE(found) << "no Fig 3a-equivalent reproducer among "
                     << out.triaged.size() << " triaged findings";
}

TEST(FuzzAcceptance, RediscoversMinorCanImoWithinBudget) {
  auto out = run_campaign(ProtocolParams::minor_can(), 5, 4000, {});
  EXPECT_TRUE(out.result.stats.classes_seen &
              fuzz_class_bit(FuzzClass::Agreement));
  bool found = false;
  for (const auto& f : out.triaged) found = found || is_fig3_certificate(f);
  EXPECT_TRUE(found) << "no Fig 3b-equivalent reproducer among "
                     << out.triaged.size() << " triaged findings";
}

TEST(FuzzAcceptance, MajorCanCleanInsideEnvelope) {
  // MajorCAN_5 under the paper's fault model: at most m=5 disturbances in
  // the frame-tail window, no mid-frame corruption, no crashes.  The same
  // budget that breaks CAN and MinorCAN must report neither Agreement nor
  // Validity here.
  FuzzBounds envelope;
  envelope.max_flips = 5;
  envelope.allow_body = false;
  envelope.allow_crash = false;
  envelope.mutate_protocol = false;
  auto out = run_campaign(ProtocolParams::major_can(5), 7, 3000, envelope);
  const std::uint32_t headline = fuzz_class_bit(FuzzClass::Agreement) |
                                 fuzz_class_bit(FuzzClass::Validity);
  EXPECT_EQ(out.result.stats.classes_seen & headline, 0u)
      << fuzz_classes_to_string(out.result.stats.classes_seen);
  for (const auto& f : out.triaged) {
    EXPECT_NE(f.cls, FuzzClass::Agreement) << export_finding(f, "test");
    EXPECT_NE(f.cls, FuzzClass::Validity) << export_finding(f, "test");
  }
  // The campaign still exercised the protocol: coverage accumulated.
  EXPECT_GT(out.result.stats.signature_bits, 0);
  EXPECT_GT(out.result.stats.fsm_transitions, 0);
}

}  // namespace
}  // namespace mcan
