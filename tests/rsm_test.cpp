// Consensus-layer tests: fragmentation/reassembly under adversarial
// interleavings, the replicated log and its snapshot transfer, full
// cluster runs over every link variant, crash/recovery, the bounded
// consensus model check, the consensus fuzzing oracle, and the serve
// backend — the application-level half of the paper's claim: standard
// CAN's inconsistent message omission breaks replicated-state-machine
// consistency, MajorCAN_m inside its envelope does not.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/engine.hpp"
#include "fuzz/triage.hpp"
#include "higher/host.hpp"
#include "rsm/check.hpp"
#include "rsm/cluster.hpp"
#include "rsm/frag.hpp"
#include "rsm/log.hpp"
#include "rsm/runner.hpp"
#include "serve/backend.hpp"

namespace mcan {
namespace {

std::vector<std::uint8_t> pattern_payload(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(seed + 7 * i);
  }
  return p;
}

// --- fragmentation --------------------------------------------------------

TEST(RsmFrag, SplitRoundTripAllSizes) {
  for (const std::size_t size : {0u, 1u, 2u, 3u, 8u, 255u, 256u}) {
    std::uint16_t seq = 0;
    const std::vector<std::uint8_t> payload =
        pattern_payload(size, static_cast<std::uint8_t>(size));
    const std::vector<Frame> segs =
        split_message(RsmMsgType::Cmd, 2, 0, seq, payload, 0x102);
    const std::size_t want_segs =
        std::max<std::size_t>(1, (size + kRsmChunkBytes - 1) / kRsmChunkBytes);
    EXPECT_EQ(segs.size(), want_segs) << "size " << size;
    EXPECT_EQ(seq, want_segs);

    Reassembler rx;
    std::optional<RsmMessage> done;
    BitTime t = 10;
    for (const Frame& f : segs) {
      EXPECT_FALSE(done) << "completed before the last segment, size "
                         << size;
      done = rx.on_frame(f, t++);
    }
    ASSERT_TRUE(done) << "size " << size;
    EXPECT_EQ(done->type, RsmMsgType::Cmd);
    EXPECT_EQ(done->source, 2);
    EXPECT_EQ(done->payload, payload);
    EXPECT_TRUE(rx.stats().lossless());
    EXPECT_EQ(rx.stats().messages, 1u);
  }
}

TEST(RsmFrag, OversizePayloadThrows) {
  std::uint16_t seq = 0;
  EXPECT_THROW(split_message(RsmMsgType::Cmd, 0, 0, seq,
                             pattern_payload(kRsmMaxPayload + 1, 1), 0x100),
               std::length_error);
}

TEST(RsmFrag, DuplicateSegmentsAbsorbed) {
  std::uint16_t seq = 0;
  const std::vector<std::uint8_t> payload = pattern_payload(4, 9);
  const std::vector<Frame> segs =
      split_message(RsmMsgType::Cmd, 1, 0, seq, payload, 0x101);
  ASSERT_EQ(segs.size(), 2u);

  // CAN's inconsistent double reception: a segment arrives twice.
  Reassembler rx;
  EXPECT_FALSE(rx.on_frame(segs[0], 1));
  EXPECT_FALSE(rx.on_frame(segs[0], 2));  // duplicate, absorbed
  const std::optional<RsmMessage> done = rx.on_frame(segs[1], 3);
  ASSERT_TRUE(done);
  EXPECT_EQ(done->payload, payload);
  EXPECT_EQ(rx.stats().duplicates, 1u);
  EXPECT_TRUE(rx.stats().lossless());

  // A duplicated *last* segment after completion is also just counted.
  EXPECT_FALSE(rx.on_frame(segs[1], 4));
  EXPECT_EQ(rx.stats().duplicates, 2u);
  EXPECT_EQ(rx.stats().messages, 1u);
}

TEST(RsmFrag, LostSegmentDetectedAsGap) {
  std::uint16_t seq = 0;
  const std::vector<Frame> msg_a =
      split_message(RsmMsgType::Cmd, 0, 0, seq, pattern_payload(4, 1), 0x100);
  const std::vector<Frame> msg_b =
      split_message(RsmMsgType::Cmd, 0, 0, seq, pattern_payload(4, 2), 0x100);
  ASSERT_EQ(msg_a.size(), 2u);
  ASSERT_EQ(msg_b.size(), 2u);

  // Lose A's second segment (inconsistent omission): B must still land,
  // and the loss must be visible in the stats — this is the exact signal
  // that turns a wire-level Agreement violation into an application one.
  Reassembler rx;
  EXPECT_FALSE(rx.on_frame(msg_a[0], 1));
  EXPECT_FALSE(rx.on_frame(msg_b[0], 2));  // seq jumps: gap + partial drop
  const std::optional<RsmMessage> done = rx.on_frame(msg_b[1], 3);
  ASSERT_TRUE(done);
  EXPECT_EQ(done->payload, pattern_payload(4, 2));
  EXPECT_EQ(rx.stats().gaps, 1u);
  EXPECT_EQ(rx.stats().dropped, 1u);
  EXPECT_FALSE(rx.stats().lossless());
}

TEST(RsmFrag, InterleavedSendersReassembleIndependently) {
  std::uint16_t seq_a = 0;
  std::uint16_t seq_b = 0;
  const std::vector<std::uint8_t> pay_a = pattern_payload(6, 3);
  const std::vector<std::uint8_t> pay_b = pattern_payload(5, 4);
  const std::vector<Frame> a =
      split_message(RsmMsgType::Cmd, 0, 0, seq_a, pay_a, 0x100);
  const std::vector<Frame> b =
      split_message(RsmMsgType::Vote, 1, 0, seq_b, pay_b, 0x101);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);

  // Arbitration interleaves two senders' segments; per-sender sequencing
  // must keep the streams apart.
  Reassembler rx;
  EXPECT_FALSE(rx.on_frame(a[0], 1));
  EXPECT_FALSE(rx.on_frame(b[0], 2));
  EXPECT_FALSE(rx.on_frame(a[1], 3));
  EXPECT_FALSE(rx.on_frame(b[1], 4));
  const std::optional<RsmMessage> done_a = rx.on_frame(a[2], 5);
  const std::optional<RsmMessage> done_b = rx.on_frame(b[2], 6);
  ASSERT_TRUE(done_a);
  ASSERT_TRUE(done_b);
  EXPECT_EQ(done_a->source, 0);
  EXPECT_EQ(done_a->payload, pay_a);
  EXPECT_EQ(done_b->type, RsmMsgType::Vote);
  EXPECT_EQ(done_b->payload, pay_b);
  EXPECT_TRUE(rx.stats().lossless());
  EXPECT_EQ(rx.stats().messages, 2u);
}

TEST(RsmFrag, EpochChangeDropsPartialMessage) {
  std::uint16_t seq_old = 0;
  const std::vector<Frame> old_msg = split_message(
      RsmMsgType::Cmd, 3, /*epoch=*/1, seq_old, pattern_payload(4, 5), 0x103);
  // The sender crashed mid-message and came back in a new incarnation.
  std::uint16_t seq_new = 0;
  const std::vector<Frame> new_msg = split_message(
      RsmMsgType::Join, 3, /*epoch=*/2, seq_new, pattern_payload(2, 6), 0x103);

  Reassembler rx;
  EXPECT_FALSE(rx.on_frame(old_msg[0], 1));
  const std::optional<RsmMessage> done = rx.on_frame(new_msg[0], 2);
  ASSERT_TRUE(done);
  EXPECT_EQ(done->type, RsmMsgType::Join);
  EXPECT_EQ(done->epoch, 2);
  EXPECT_EQ(rx.stats().epoch_resets, 1u);
  EXPECT_EQ(rx.stats().dropped, 1u);
}

TEST(RsmFrag, NonSegmentFramesCountedMalformed) {
  Reassembler rx;
  Frame plain;
  plain.id = 0x300;
  plain.dlc = 2;
  plain.data = {0xAB, 0xCD};
  EXPECT_FALSE(rx.on_frame(plain, 1));
  EXPECT_EQ(rx.stats().malformed, 1u);
  EXPECT_FALSE(rx.stats().lossless());
}

// --- log / machine / snapshot ---------------------------------------------

TEST(RsmLogTest, RegisterMachineSignExtendsDeltas) {
  RegisterMachine m;
  LogEntry inc;
  inc.id = {0, 1};
  inc.payload = {1, 0x05};  // reg 1 += 5
  m.apply(inc, 0);
  EXPECT_EQ(m.reg(1), 5);

  LogEntry dec;
  dec.id = {0, 2};
  dec.payload = {1, 0xFF};  // reg 1 += -1 (sign-extended)
  m.apply(dec, 1);
  EXPECT_EQ(m.reg(1), 4);

  LogEntry wide;
  wide.id = {0, 3};
  wide.payload = {2, 0x00, 0xFF};  // reg 2 += -256, little endian
  m.apply(wide, 2);
  EXPECT_EQ(m.reg(2), -256);

  LogEntry bare;
  bare.id = {0, 4};
  bare.payload = {3};  // selector only: delta 0, digest still advances
  const std::uint64_t before = m.digest();
  m.apply(bare, 3);
  EXPECT_EQ(m.reg(3), 0);
  EXPECT_NE(m.digest(), before);
  EXPECT_EQ(m.applied(), 4);
}

TEST(RsmLogTest, AbsoluteIndicesSurviveSnapshotBase) {
  RsmLog log;
  log.reset_to_base(10);
  LogEntry e;
  e.id = {1, 7};
  EXPECT_EQ(log.append(e), 10);
  EXPECT_TRUE(log.holds(10));
  EXPECT_FALSE(log.holds(9));
  EXPECT_TRUE(log.contains({1, 7}));
  EXPECT_EQ(log.index_of({1, 7}).value_or(-1), 10);
  EXPECT_FALSE(log.committed(10));
  log.mark_committed(10);
  EXPECT_TRUE(log.committed(10));
}

TEST(RsmLogTest, SnapshotSerializeParseRoundTrip) {
  RsmSnapshot s;
  s.joiner = 2;
  s.joiner_epoch = 3;
  s.term = 1;
  s.members = 0b111;
  s.base = 5;
  s.regs[0] = -42;
  s.regs[7] = 1234567;
  s.digest = 0xDEADBEEFCAFEF00DULL;
  RsmSnapshot::TailEntry t1;
  t1.entry.id = {0, 9};
  t1.entry.payload = pattern_payload(3, 8);
  t1.voters = 0b101;
  RsmSnapshot::TailEntry t2;
  t2.entry.id = {1, 4};
  t2.entry.is_join = true;
  t2.entry.joiner = 2;
  t2.entry.joiner_epoch = 3;
  t2.voters = 0b001;
  s.tail = {t1, t2};

  const std::vector<std::uint8_t> bytes = s.serialize();
  ASSERT_LE(bytes.size(), static_cast<std::size_t>(kRsmMaxPayload));
  const std::optional<RsmSnapshot> p = RsmSnapshot::parse(bytes);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->joiner, s.joiner);
  EXPECT_EQ(p->joiner_epoch, s.joiner_epoch);
  EXPECT_EQ(p->term, s.term);
  EXPECT_EQ(p->members, s.members);
  EXPECT_EQ(p->base, s.base);
  EXPECT_EQ(p->regs, s.regs);
  EXPECT_EQ(p->digest, s.digest);
  ASSERT_EQ(p->tail.size(), 2u);
  EXPECT_EQ(p->tail[0].entry.id, t1.entry.id);
  EXPECT_EQ(p->tail[0].entry.payload, t1.entry.payload);
  EXPECT_EQ(p->tail[0].voters, t1.voters);
  EXPECT_TRUE(p->tail[1].entry.is_join);
  EXPECT_EQ(p->tail[1].entry.joiner, 2);
  EXPECT_EQ(p->tail[1].entry.digest(), t2.entry.digest());
}

TEST(RsmLogTest, SnapshotSerializerCapsOversizeTail) {
  RsmSnapshot s;
  for (int i = 0; i < 40; ++i) {
    RsmSnapshot::TailEntry t;
    t.entry.id = {0, static_cast<std::uint16_t>(i)};
    t.entry.payload = pattern_payload(10, static_cast<std::uint8_t>(i));
    s.tail.push_back(std::move(t));
  }
  const std::vector<std::uint8_t> bytes = s.serialize();
  ASSERT_LE(bytes.size(), static_cast<std::size_t>(kRsmMaxPayload));
  const std::optional<RsmSnapshot> p = RsmSnapshot::parse(bytes);
  ASSERT_TRUE(p);
  EXPECT_LT(p->tail.size(), 40u);
  EXPECT_TRUE(p->truncated);
}

TEST(RsmLogTest, TruncatedSnapshotBytesRejected) {
  RsmSnapshot s;
  s.members = 0b11;
  RsmSnapshot::TailEntry t;
  t.entry.id = {1, 2};
  t.entry.payload = pattern_payload(4, 1);
  s.tail = {t};
  std::vector<std::uint8_t> bytes = s.serialize();
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{3}, std::size_t{0}}) {
    std::vector<std::uint8_t> short_bytes(bytes.begin(),
                                          bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(RsmSnapshot::parse(short_bytes)) << "cut " << cut;
  }
}

// --- HostParams validation (satellite: timeout_bits floor) ----------------

TEST(RsmHost, TimeoutFloorMatchesProtocolGeometry) {
  const BitTime can_min = host_min_timeout_bits(ProtocolParams::standard_can());
  const BitTime major_min = host_min_timeout_bits(ProtocolParams::major_can(5));
  // MajorCAN's longer EOF and delimiter push the worst case up.
  EXPECT_GT(major_min, can_min);
  // The default and the value the higher-protocol tests use must stay
  // legal on standard CAN.
  EXPECT_LE(can_min, 400);
  HostParams ok;
  ok.timeout_bits = 400;
  EXPECT_NO_THROW(ok.validate(ProtocolParams::standard_can()));
  HostParams dflt;
  EXPECT_NO_THROW(dflt.validate(ProtocolParams::standard_can()));
  EXPECT_NO_THROW(dflt.validate(ProtocolParams::major_can(5)));

  HostParams bad;
  bad.timeout_bits = can_min;  // must *exceed* the floor
  EXPECT_THROW(bad.validate(ProtocolParams::standard_can()),
               std::invalid_argument);
}

TEST(RsmHost, HigherHostRejectsUnsafeTimeoutAtConstruction) {
  HostParams bad;
  bad.timeout_bits = 10;
  RsmClusterConfig cc;
  cc.n_nodes = 3;
  cc.link = RsmLink::Totcan;
  cc.host = bad;
  EXPECT_THROW(RsmCluster cluster(cc), std::invalid_argument);
}

// --- DSL: the rsm directive ------------------------------------------------

TEST(RsmDsl, DirectiveRoundTrips) {
  const std::string text =
      "protocol major 5\n"
      "nodes 3\n"
      "frame id=0x100 dlc=4\n"
      "rsm commands=4 payload=6 k=2 spacing=500 link=totcan crash=1 "
      "crasht=2000 recovert=9000\n"
      "expect consistent\n";
  const ScenarioSpec spec = parse_scenario(text);
  ASSERT_TRUE(spec.rsm);
  EXPECT_EQ(spec.rsm->commands, 4);
  EXPECT_EQ(spec.rsm->payload, 6);
  EXPECT_EQ(spec.rsm->k, 2);
  EXPECT_EQ(spec.rsm->spacing, 500);
  EXPECT_EQ(spec.rsm->link, 3);
  EXPECT_EQ(spec.rsm->crash_node, 1);
  EXPECT_EQ(spec.rsm->recover_t, 9000);
  EXPECT_EQ(parse_scenario(write_scenario(spec)), spec);
}

TEST(RsmDsl, SanitizeClampsWorkload) {
  RsmWorkload w;
  w.commands = 99;
  w.payload = 1000;
  w.k = 7;
  w.link = 42;
  w.crash_node = 9;
  w.crash_t = 500;
  w.recover_t = 100;  // before the crash: must be pushed after it
  const RsmWorkload c = sanitize_rsm_workload(w, 3);
  EXPECT_LE(c.commands, 10);
  EXPECT_LE(c.payload, 16);
  EXPECT_LE(c.k, 3);
  EXPECT_GE(c.link, 0);
  EXPECT_LE(c.link, 3);
  EXPECT_LT(c.crash_node, 3);
  EXPECT_GT(c.recover_t, c.crash_t);
}

TEST(RsmDsl, PlainRunnerRejectsRsmScenarios) {
  ScenarioSpec spec;
  spec.rsm = RsmWorkload{};
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
  // ... and the dispatcher routes it instead of throwing.
  spec.protocol = ProtocolParams::major_can(5);
  spec.n_nodes = 3;
  const DslRunResult res = run_any_scenario(spec);
  EXPECT_TRUE(res.quiesced);
}

// --- full cluster runs ------------------------------------------------------

RsmWorkload small_workload(int commands = 3, int payload = 4, int k = 2) {
  RsmWorkload w;
  w.commands = commands;
  w.payload = payload;
  w.k = k;
  return w;
}

TEST(RsmRun, MajorCanDirectCleanConsensus) {
  ScenarioSpec spec;
  spec.name = "rsm-major-clean";
  spec.protocol = ProtocolParams::major_can(5);
  spec.n_nodes = 5;
  spec.rsm = small_workload(5, 4, 2);
  spec.expect = Expectation::Consistent;

  const RsmRunResult res = run_rsm_scenario(spec);
  EXPECT_TRUE(res.base.quiesced);
  EXPECT_TRUE(res.within_envelope);
  EXPECT_TRUE(res.rsm.clean()) << res.rsm.summary() << "\n" << res.rsm.detail;
  EXPECT_TRUE(res.base.expectation_met) << res.base.expectation_text;
  EXPECT_EQ(res.rsm.participating, 5);
  EXPECT_EQ(res.rsm.proposals, 5);
  // Every replica commits and applies every command.
  EXPECT_EQ(res.rsm.commits, 25);
  EXPECT_TRUE(res.rsm.liveness_checked);
  EXPECT_TRUE(res.base.invariants.clean()) << res.base.invariants.summary();
}

TEST(RsmRun, StandardCanFaultFreeIsClean) {
  ScenarioSpec spec;
  spec.protocol = ProtocolParams::standard_can();
  spec.n_nodes = 3;
  spec.rsm = small_workload(3, 4, 2);
  spec.expect = Expectation::Consistent;
  const RsmRunResult res = run_rsm_scenario(spec);
  EXPECT_TRUE(res.base.quiesced);
  EXPECT_TRUE(res.within_envelope);  // no disturbances scheduled
  EXPECT_TRUE(res.rsm.clean()) << res.rsm.summary();
  EXPECT_EQ(res.rsm.commits, 9);
}

TEST(RsmRun, MultiSegmentCommandsSurviveArbitration) {
  // 16-byte commands fragment into 8 segments each; three proposers
  // contend simultaneously.  The total order must still produce matching
  // logs and lossless reassembly everywhere.
  ScenarioSpec spec;
  spec.protocol = ProtocolParams::major_can(5);
  spec.n_nodes = 3;
  spec.rsm = small_workload(3, 16, 3);
  spec.expect = Expectation::Consistent;
  const RsmRunResult res = run_rsm_scenario(spec);
  EXPECT_TRUE(res.base.quiesced);
  EXPECT_TRUE(res.rsm.clean()) << res.rsm.summary() << "\n" << res.rsm.detail;
  EXPECT_EQ(res.rsm.commits, 9);
}

TEST(RsmRun, CanImoFlipsBreakConsensus) {
  // The canonical standard-CAN IMO shape (scenarios/fuzz_can_k2_imo.scn):
  // a receiver rejects in the second-to-last EOF bit, and the
  // transmitter's view of the resulting error flag is flipped in its last
  // EOF bit, so it believes the broadcast succeeded and never
  // retransmits.  On the wire that is one lost segment at one node; at
  // the application it is two replicas with different logs.
  ScenarioSpec spec;
  spec.name = "rsm-can-imo";
  spec.protocol = ProtocolParams::standard_can();
  spec.n_nodes = 3;
  spec.rsm = small_workload(2, 2, 2);
  spec.flips.push_back(FaultTarget::eof_relative(0, 6, 0));
  spec.flips.push_back(FaultTarget::eof_relative(1, 5, 0));
  spec.expect = Expectation::Imo;

  const RsmRunResult res = run_rsm_scenario(spec);
  EXPECT_TRUE(res.base.quiesced);
  EXPECT_FALSE(res.within_envelope);
  EXPECT_FALSE(res.rsm.clean()) << res.rsm.summary();
  EXPECT_GT(res.rsm.log_mismatches + res.rsm.state_mismatches, 0)
      << res.rsm.summary();
  EXPECT_TRUE(res.base.expectation_met) << res.base.expectation_text;
}

TEST(RsmRun, MajorCanAbsorbsTheSameFlips) {
  // Same disturbance pattern, MajorCAN_5: two flips are well inside the
  // m=5 envelope, so consensus must hold — the paper's claim end to end.
  ScenarioSpec spec;
  spec.protocol = ProtocolParams::major_can(5);
  spec.n_nodes = 3;
  spec.rsm = small_workload(2, 2, 2);
  spec.flips.push_back(FaultTarget::eof_relative(0, 6, 0));
  spec.flips.push_back(FaultTarget::eof_relative(1, 5, 0));
  spec.expect = Expectation::Consistent;

  const RsmRunResult res = run_rsm_scenario(spec);
  EXPECT_TRUE(res.base.quiesced);
  EXPECT_TRUE(res.within_envelope);
  EXPECT_TRUE(res.rsm.clean()) << res.rsm.summary() << "\n" << res.rsm.detail;
  EXPECT_TRUE(res.rsm.liveness_checked);
}

TEST(RsmRun, CrashRecoveryInstallsSnapshot) {
  ScenarioSpec spec;
  spec.name = "rsm-recovery";
  spec.protocol = ProtocolParams::major_can(5);
  spec.n_nodes = 3;
  RsmWorkload w = small_workload(4, 4, 2);
  w.spacing = 1500;
  w.crash_node = 1;
  w.crash_t = 2500;
  w.recover_t = 12000;
  spec.rsm = w;
  spec.expect = Expectation::Consistent;

  const RsmRunResult res = run_rsm_scenario(spec);
  EXPECT_TRUE(res.base.quiesced);
  EXPECT_TRUE(res.rsm.clean()) << res.rsm.summary() << "\n" << res.rsm.detail;
  EXPECT_EQ(res.rsm.installs, 1);
  EXPECT_EQ(res.rsm.election_violations, 0);
  EXPECT_EQ(res.rsm.stalled_recoveries, 0);
  EXPECT_TRUE(res.base.expectation_met) << res.base.expectation_text;
}

TEST(RsmRun, RecoveredReplicaKeepsCommittingAfterRejoin) {
  // Proposals continue after the rejoin: the recovered replica must take
  // part in committing them (snapshot handoff restored its bookkeeping).
  ScenarioSpec spec;
  spec.protocol = ProtocolParams::major_can(5);
  spec.n_nodes = 3;
  RsmWorkload w = small_workload(6, 4, 3);  // k = n: nobody may lag
  w.spacing = 4000;
  w.crash_node = 2;
  w.crash_t = 3000;
  w.recover_t = 9000;
  spec.rsm = w;
  spec.expect = Expectation::Consistent;

  const RsmRunResult res = run_rsm_scenario(spec);
  EXPECT_TRUE(res.base.quiesced);
  EXPECT_TRUE(res.rsm.clean()) << res.rsm.summary() << "\n" << res.rsm.detail;
  EXPECT_EQ(res.rsm.installs, 1);
  EXPECT_TRUE(res.rsm.liveness_checked);
}

TEST(RsmRun, ControllerCrashMidBroadcastExcludedFromVerdict) {
  // A fail-silent *controller* crash (not a host crash) in the middle of
  // the broadcast schedule: the higher-network journal collection and the
  // consensus checker must both treat that node as out of the model
  // instead of reporting phantom violations.
  for (const int link : {0, 3}) {  // direct and TOTCAN
    ScenarioSpec spec;
    spec.protocol = ProtocolParams::standard_can();
    spec.n_nodes = 4;
    RsmWorkload w = small_workload(4, 4, 2);
    w.link = link;
    w.spacing = 300;
    spec.rsm = w;
    spec.crash = {{2, 700}};  // mid-schedule, segments still in flight
    const RsmRunResult res = run_rsm_scenario(spec);
    EXPECT_TRUE(res.base.quiesced) << "link " << link;
    EXPECT_FALSE(res.within_envelope);  // fail-silence is outside the model
    EXPECT_EQ(res.rsm.election_violations, 0) << "link " << link;
    EXPECT_EQ(res.rsm.participating, 3) << "link " << link;
    EXPECT_EQ(res.base.ab.nontriviality_violations, 0)
        << "link " << link << ": " << res.base.ab.summary();
  }
}

TEST(RsmRun, TotcanPreservesConsensusEdcanDoesNot) {
  // EDCAN and RELCAN deliver a sender's own message immediately — no
  // total order — so three simultaneous proposers append in different
  // orders and the logs diverge.  TOTCAN's ACCEPT-ordered release keeps
  // the logs matching.  This is the Rufino hierarchy, observed from the
  // application.
  for (const int link : {1, 2}) {  // edcan, relcan
    ScenarioSpec spec;
    spec.protocol = ProtocolParams::standard_can();
    spec.n_nodes = 3;
    RsmWorkload w = small_workload(3, 4, 2);
    w.link = link;
    spec.rsm = w;
    const RsmRunResult res = run_rsm_scenario(spec);
    EXPECT_TRUE(res.base.quiesced) << "link " << link;
    EXPECT_GT(res.rsm.log_mismatches, 0)
        << "link " << link << ": " << res.rsm.summary();
  }

  ScenarioSpec spec;
  spec.protocol = ProtocolParams::standard_can();
  spec.n_nodes = 3;
  RsmWorkload w = small_workload(3, 4, 2);
  w.link = 3;  // totcan
  spec.rsm = w;
  const RsmRunResult res = run_rsm_scenario(spec);
  EXPECT_TRUE(res.base.quiesced);
  EXPECT_EQ(res.rsm.log_mismatches, 0) << res.rsm.summary();
  EXPECT_EQ(res.rsm.state_mismatches, 0) << res.rsm.summary();
}

// --- bounded consensus model check -----------------------------------------

TEST(RsmCheck, MajorCanEnvelopeSweepIsClean) {
  // Exhaustive over the whole MajorCAN_3 end-game window (3m+5 = 14),
  // every node, up to two stacked flips: every case is inside the m=3
  // envelope, so election safety, log matching, state-machine safety AND
  // liveness must hold in all of them.
  RsmCheckConfig cfg;
  cfg.base.protocol = ProtocolParams::major_can(3);
  cfg.base.n_nodes = 3;
  cfg.base.rsm = small_workload(2, 2, 2);
  cfg.max_k = 2;
  cfg.max_frames = 1;
  cfg.jobs = 4;
  const RsmCheckResult res = run_rsm_check(cfg);
  const long long targets = 3LL * (cfg.window_hi() + 1);
  EXPECT_EQ(res.cases, targets + targets * (targets - 1) / 2);
  EXPECT_EQ(res.violations(), 0) << res.summary();
  EXPECT_EQ(res.timeouts, 0) << res.summary();
  EXPECT_FALSE(res.stopped);
}

TEST(RsmCheck, StandardCanSweepFindsConsensusCounterexample) {
  RsmCheckConfig cfg;
  cfg.base.protocol = ProtocolParams::standard_can();
  cfg.base.n_nodes = 3;
  cfg.base.rsm = small_workload(2, 2, 2);
  cfg.max_k = 2;
  cfg.win_lo = 4;
  cfg.win_hi = 6;
  cfg.max_frames = 1;
  const RsmCheckResult res = run_rsm_check(cfg);
  EXPECT_GT(res.violations(), 0) << res.summary();
  EXPECT_GT(res.log_diverge + res.state_diverge, 0) << res.summary();
  ASSERT_FALSE(res.findings.empty());
  // Findings are replayable scenarios that still reproduce.
  const RsmRunResult replay = run_rsm_scenario(res.findings.front());
  EXPECT_FALSE(replay.rsm.clean() && replay.base.quiesced);
}

TEST(RsmCheck, ResultIndependentOfJobCount) {
  RsmCheckConfig cfg;
  cfg.base.protocol = ProtocolParams::standard_can();
  cfg.base.n_nodes = 2;
  cfg.base.rsm = small_workload(2, 2, 2);
  cfg.max_k = 2;
  cfg.win_lo = 4;
  cfg.win_hi = 6;
  cfg.max_frames = 1;
  cfg.jobs = 1;
  const RsmCheckResult a = run_rsm_check(cfg);
  ASSERT_FALSE(a.findings.empty()) << a.summary();
  // jobs=0 is one thread per core; summary() carries every count.
  for (const int jobs : {0, 4}) {
    cfg.jobs = jobs;
    const RsmCheckResult b = run_rsm_check(cfg);
    EXPECT_EQ(a.summary(), b.summary()) << "jobs=" << jobs;
    ASSERT_EQ(a.findings.size(), b.findings.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
      EXPECT_EQ(a.findings[i], b.findings[i])
          << "jobs=" << jobs << " finding " << i;
    }
  }
}

TEST(RsmCheck, RejectsNegativeJobs) {
  RsmCheckConfig cfg;
  cfg.base.protocol = ProtocolParams::standard_can();
  cfg.base.n_nodes = 2;
  cfg.base.rsm = small_workload(2, 2, 2);
  cfg.jobs = -1;
  EXPECT_THROW((void)run_rsm_check(cfg), std::invalid_argument);
}

// --- the consensus fuzzing oracle ------------------------------------------

TEST(RsmFuzz, OracleClassifiesConsensusBreakage) {
  ScenarioSpec spec;
  spec.protocol = ProtocolParams::standard_can();
  spec.n_nodes = 3;
  spec.rsm = small_workload(2, 2, 2);
  spec.flips.push_back(FaultTarget::eof_relative(0, 6, 0));
  spec.flips.push_back(FaultTarget::eof_relative(1, 5, 0));
  const FuzzVerdict v = run_fuzz_case(spec);
  EXPECT_TRUE(v.violation());
  EXPECT_TRUE(v.classes & (fuzz_class_bit(FuzzClass::LogDiverge) |
                           fuzz_class_bit(FuzzClass::StateDiverge)))
      << fuzz_classes_to_string(v.classes) << "\n" << v.detail;
  // Consensus classes outrank the wire-level ones.
  const FuzzClass primary = v.primary();
  EXPECT_TRUE(primary == FuzzClass::Election ||
              primary == FuzzClass::LogDiverge ||
              primary == FuzzClass::StateDiverge ||
              primary == FuzzClass::RsmStall)
      << fuzz_class_name(primary);
}

TEST(RsmFuzz, ClassNamesRoundTrip) {
  std::uint32_t mask = 0;
  std::string err;
  ASSERT_TRUE(parse_fuzz_classes("election,logdiverge,rsmstall", mask, err))
      << err;
  EXPECT_EQ(mask, fuzz_class_bit(FuzzClass::Election) |
                      fuzz_class_bit(FuzzClass::LogDiverge) |
                      fuzz_class_bit(FuzzClass::RsmStall));
  EXPECT_EQ(fuzz_classes_to_string(mask), "election+logdiverge+rsmstall");
  EXPECT_FALSE(parse_fuzz_classes("statediverge,bogus", mask, err));
}

TEST(RsmFuzz, CampaignWithWorkloadIsDeterministicAcrossJobs) {
  FuzzConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.n_nodes = 3;
  cfg.seed = 11;
  cfg.max_execs = 48;
  cfg.batch = 16;
  cfg.workload = small_workload(2, 2, 2);
  cfg.bounds.allow_body = false;

  cfg.jobs = 1;
  const FuzzResult a = run_fuzz(cfg);
  cfg.jobs = 4;
  const FuzzResult b = run_fuzz(cfg);
  EXPECT_EQ(a.stats.execs, b.stats.execs);
  EXPECT_EQ(a.stats.admitted, b.stats.admitted);
  EXPECT_EQ(a.stats.findings, b.stats.findings);
  EXPECT_EQ(a.stats.classes_seen, b.stats.classes_seen);
  EXPECT_EQ(a.stats.signature_bits, b.stats.signature_bits);
  ASSERT_EQ(a.corpus.size(), b.corpus.size());
  for (std::size_t i = 0; i < a.corpus.entries().size(); ++i) {
    EXPECT_EQ(a.corpus.entries()[i].spec, b.corpus.entries()[i].spec);
    // The campaign workload rides on every genome.
    EXPECT_TRUE(a.corpus.entries()[i].spec.rsm.has_value());
  }
}

TEST(RsmFuzz, CanCampaignFindsAndMinimizesConsensusFinding) {
  // Fixed-seed campaign over standard CAN with the consensus workload
  // attached: the mutator must discover an application-level consistency
  // violation, and triage must ddmin it to a replay-verified .scn.
  FuzzConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.n_nodes = 3;
  cfg.seed = 1;
  cfg.max_execs = 600;
  cfg.batch = 32;
  cfg.jobs = 4;
  cfg.workload = small_workload(2, 2, 2);
  cfg.bounds.allow_body = false;
  cfg.bounds.allow_crash = false;
  cfg.bounds.mutate_nodes = false;
  cfg.bounds.max_flips = 3;
  const FuzzResult res = run_fuzz(cfg);
  const std::uint32_t consensus = fuzz_class_bit(FuzzClass::Election) |
                                  fuzz_class_bit(FuzzClass::LogDiverge) |
                                  fuzz_class_bit(FuzzClass::StateDiverge) |
                                  fuzz_class_bit(FuzzClass::RsmStall);
  ASSERT_NE(res.stats.classes_seen & consensus, 0u)
      << fuzz_classes_to_string(res.stats.classes_seen);

  // Keep triage cheap: minimize only the first consensus finding.
  std::vector<FuzzFinding> picked;
  for (const FuzzFinding& f : res.findings) {
    if (f.verdict.classes & consensus) {
      picked.push_back(f);
      break;
    }
  }
  ASSERT_FALSE(picked.empty());
  const std::vector<TriagedFinding> triaged = triage_findings(picked);
  ASSERT_FALSE(triaged.empty());
  const TriagedFinding& t = triaged.front();
  EXPECT_TRUE(t.replay_ok) << export_finding(t, "rsm-test");
  ASSERT_TRUE(t.spec.rsm);
  // The reproducer replays through the full writer -> parser -> runner
  // path with the same verdict.
  const ScenarioSpec parsed = parse_scenario(write_scenario(t.spec));
  EXPECT_EQ(parsed, t.spec);
  EXPECT_NE(run_fuzz_case(parsed).classes & fuzz_class_bit(t.cls), 0u);
}

TEST(RsmFuzz, MajorCanEnvelopeCampaignStaysClean) {
  // The paper's claim, fuzzed end to end: MajorCAN_5 under any <= 5
  // end-game disturbances keeps the replicated state machine consistent
  // AND live.  Any consensus class here is a repo bug or a paper
  // counterexample — both report-worthy.
  FuzzConfig cfg;
  cfg.protocol = ProtocolParams::major_can(5);
  cfg.n_nodes = 3;
  cfg.seed = 17;
  cfg.max_execs = 220;
  cfg.batch = 32;
  cfg.jobs = 4;
  cfg.workload = small_workload(2, 2, 2);
  cfg.bounds.max_flips = 5;  // the envelope
  cfg.bounds.allow_body = false;
  cfg.bounds.allow_crash = false;
  cfg.bounds.mutate_nodes = false;
  const FuzzResult res = run_fuzz(cfg);
  const std::uint32_t consensus = fuzz_class_bit(FuzzClass::Election) |
                                  fuzz_class_bit(FuzzClass::LogDiverge) |
                                  fuzz_class_bit(FuzzClass::StateDiverge) |
                                  fuzz_class_bit(FuzzClass::RsmStall);
  EXPECT_EQ(res.stats.classes_seen & consensus, 0u)
      << fuzz_classes_to_string(res.stats.classes_seen);
  EXPECT_EQ(res.stats.classes_seen & fuzz_class_bit(FuzzClass::Agreement), 0u)
      << fuzz_classes_to_string(res.stats.classes_seen);
}

// --- committed reproducers ---------------------------------------------------

TEST(RsmScenarios, CommittedReproducersReplay) {
  const std::string dir = MCAN_SCENARIO_DIR;
  {
    const ScenarioSpec s =
        load_scenario_file(dir + "/rsm_can_k2_diverge.scn");
    const RsmRunResult r = run_rsm_scenario(s);
    EXPECT_FALSE(r.rsm.clean()) << r.rsm.summary();
    EXPECT_GT(r.rsm.log_mismatches, 0);
    EXPECT_TRUE(r.base.expectation_met) << r.base.expectation_text;
    EXPECT_NE(run_fuzz_case(s).classes & fuzz_class_bit(FuzzClass::LogDiverge),
              0u);
  }
  {
    const ScenarioSpec s =
        load_scenario_file(dir + "/rsm_major5_envelope.scn");
    const RsmRunResult r = run_rsm_scenario(s);
    EXPECT_TRUE(r.within_envelope);
    EXPECT_TRUE(r.rsm.clean()) << r.rsm.summary() << "\n" << r.rsm.detail;
    EXPECT_TRUE(r.base.expectation_met) << r.base.expectation_text;
  }
  {
    const ScenarioSpec s =
        load_scenario_file(dir + "/rsm_major5_recovery.scn");
    const RsmRunResult r = run_rsm_scenario(s);
    EXPECT_TRUE(r.rsm.clean()) << r.rsm.summary() << "\n" << r.rsm.detail;
    EXPECT_EQ(r.rsm.installs, 1);
    EXPECT_TRUE(r.base.expectation_met) << r.base.expectation_text;
  }
}

// --- serve backend ----------------------------------------------------------

Json parse_json(const std::string& text) {
  Json j;
  std::string err;
  EXPECT_TRUE(Json::parse(text, j, err)) << err << "\n" << text;
  return j;
}

void drive_to_completion(CampaignBackend& b) {
  while (!b.finished()) {
    const std::size_t n = b.plan_round();
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) b.execute_slot(i);
    b.merge_round();
  }
}

TEST(RsmServe, BackendMatchesLocalRunByteForByte) {
  const Json spec = parse_json(
      R"({"backend":"rsm","protocol":"can","nodes":3,"seed":7,)"
      R"("max_execs":48,"batch":16,"commands":2,"payload":2,"k":2})");
  std::string error;
  std::unique_ptr<CampaignBackend> backend = make_backend(spec, error);
  ASSERT_TRUE(backend) << error;
  EXPECT_STREQ(backend->kind(), "rsm");
  drive_to_completion(*backend);
  const std::string served = backend->result_json();

  FuzzConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.n_nodes = 3;
  cfg.seed = 7;
  cfg.max_execs = 48;
  cfg.batch = 16;
  cfg.jobs = 1;
  cfg.workload = small_workload(2, 2, 2);
  FuzzResult local = run_fuzz(cfg);
  local.stats.elapsed_s = 0;
  const std::string local_json =
      fuzz_stats_json(local.stats, cfg.protocol, cfg.n_nodes, cfg.seed);
  EXPECT_EQ(served, local_json);
}

TEST(RsmServe, CheckpointRestoreContinuesIdentically) {
  const std::string spec_text =
      R"({"backend":"rsm","protocol":"can","nodes":3,"seed":9,)"
      R"("max_execs":64,"batch":16,"commands":2,"payload":2,"k":2})";
  const Json spec = parse_json(spec_text);
  std::string error;

  std::unique_ptr<CampaignBackend> straight = make_backend(spec, error);
  ASSERT_TRUE(straight) << error;
  drive_to_completion(*straight);
  const std::string want = straight->result_json();

  // Run two rounds, snapshot, restore into a fresh backend, finish there.
  std::unique_ptr<CampaignBackend> first = make_backend(spec, error);
  ASSERT_TRUE(first) << error;
  for (int round = 0; round < 2 && !first->finished(); ++round) {
    const std::size_t n = first->plan_round();
    for (std::size_t i = 0; i < n; ++i) first->execute_slot(i);
    first->merge_round();
  }
  const std::string snapshot = first->checkpoint();
  ASSERT_FALSE(snapshot.empty());

  std::unique_ptr<CampaignBackend> resumed = make_backend(spec, error);
  ASSERT_TRUE(resumed) << error;
  EXPECT_EQ(first->fingerprint(), resumed->fingerprint());
  ASSERT_TRUE(resumed->restore(snapshot));
  drive_to_completion(*resumed);
  EXPECT_EQ(resumed->result_json(), want);
}

TEST(RsmServe, BadSpecsRejected) {
  std::string error;
  EXPECT_FALSE(make_backend(
      parse_json(R"({"backend":"rsm","link":"carrier-pigeon"})"), error));
  EXPECT_NE(error.find("link"), std::string::npos) << error;
  EXPECT_FALSE(make_backend(
      parse_json(R"({"backend":"rsm","nodes":12})"), error));
}

}  // namespace
}  // namespace mcan
