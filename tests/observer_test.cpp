// The observer path: the one per-bit record a Simulator hands its trace
// observers, and run_scenario's opt-in trace.  Pins that (a) every observer
// of one simulator sees the same record stream, bit for bit, on both
// kernels; (b) the record is refilled in place rather than rebuilt; (c)
// a run without an observer, where the kernels skip filling the record,
// does exactly what an observed run does; and (d) opting into the trace
// changes nothing but `outcome.trace` — every verdict, count and fuzz
// signature is the same traced or not.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "analysis/tagged.hpp"
#include "attack/injector.hpp"
#include "core/network.hpp"
#include "fault/scripted.hpp"
#include "frame/frame.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/oracle.hpp"
#include "rsm/runner.hpp"
#include "scenario/dsl.hpp"
#include "sim/fast/fast_kernel.hpp"
#include "sim/kernel.hpp"

// Every heap allocation in this test binary, so a test can tell a bit that
// refills the simulator's record from one that builds a new one.  All the
// unaligned forms are replaced together (the library's nothrow and array
// forms must not pair with these deletes across allocators); the deletes
// stay out of line so the compiler never pairs an inlined free() with new.
namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mcan {
namespace {

class ScopedKernel {
 public:
  explicit ScopedKernel(KernelKind k) {
    set_default_kernel(k);
    FastKernel::set_paranoid(k == KernelKind::Fast);
  }
  ~ScopedKernel() {
    set_default_kernel(KernelKind::Ref);
    FastKernel::set_paranoid(false);
  }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;
};

/// One line per record, covering every field an observer can read.
std::string describe(const BitRecord& rec) {
  std::string s = std::to_string(rec.t) + " " + level_char(rec.bus) + " |";
  for (std::size_t i = 0; i < rec.driven.size(); ++i) {
    const NodeBitInfo& info = rec.info[i];
    s += ' ';
    s += level_char(rec.driven[i]);
    s += level_char(rec.view[i]);
    s += rec.active[i] ? 'a' : '-';
    s += rec.disturbed[i] ? '*' : '-';
    s += std::string(seg_name(info.seg)) + ":" + std::to_string(info.index) +
         "/" + std::to_string(info.eof_rel) + "/" +
         std::to_string(info.frame_index) + "/" +
         (info.transmitter ? "tx" : "rx") + "/" + std::to_string(info.tec) +
         "/" + std::to_string(info.rec);
  }
  return s;
}

/// Renders each record on arrival.
class Describer final : public TraceObserver {
 public:
  void on_bit(const BitRecord& rec) override { lines.push_back(describe(rec)); }

  std::vector<std::string> lines;
};

struct TwoObserverRun {
  std::vector<BitRecord> recorded;  ///< TraceRecorder's copies
  Describer live;                   ///< described during on_bit
  BitTime bits = 0;                 ///< bits stepped
};

constexpr BitTime kFlipAt = 30;   ///< node 2's view is flipped here
constexpr BitTime kCrashAt = 90;  ///< node 3 crashes here, mid-frame
constexpr int kIdleBits = 80;     ///< stepped after the bus went quiet

/// Two senders, a disturbed view, a receiver crashing mid-frame, then an
/// idle stretch once the bus is quiet.
TwoObserverRun two_observer_run(KernelKind k) {
  ScopedKernel scoped(k);
  TwoObserverRun run;
  Network net(5, ProtocolParams::standard_can());
  net.enable_trace();
  net.sim().add_observer(run.live);
  ScriptedFaults faults({FaultTarget::at_time(2, kFlipAt)});
  net.set_injector(faults);
  net.node(0).enqueue(Frame::make_blank(0x100, 4));
  net.node(1).enqueue(Frame::make_blank(0x200, 4));
  net.sim().schedule_crash(3, kCrashAt);
  EXPECT_TRUE(net.run_until_quiet(5000));
  for (int i = 0; i < kIdleBits / 2; ++i) net.sim().step();
  net.sim().run(kIdleBits / 2);
  run.bits = net.sim().now();
  run.recorded = net.trace().bits();
  return run;
}

TEST(ObserverPath, TwoObserversSeeIdenticalStreamsOnBothKernels) {
  const TwoObserverRun ref = two_observer_run(KernelKind::Ref);
  const TwoObserverRun fast = two_observer_run(KernelKind::Fast);
  std::vector<std::string> ref_lines;
  for (const TwoObserverRun* r : {&ref, &fast}) {
    // Observers switch idle skipping off: one record per bit, in order.
    ASSERT_EQ(r->recorded.size(), static_cast<std::size_t>(r->bits));
    std::vector<std::string> lines;
    for (std::size_t t = 0; t < r->recorded.size(); ++t) {
      ASSERT_EQ(r->recorded[t].t, static_cast<BitTime>(t));
      lines.push_back(describe(r->recorded[t]));
    }
    // The recorder's copies and the live view agree bit for bit.
    EXPECT_EQ(lines, r->live.lines);
    if (ref_lines.empty()) ref_lines = lines;
    EXPECT_EQ(lines, ref_lines) << "kernels disagree";

    EXPECT_TRUE(r->recorded[kFlipAt].disturbed[2]);
    EXPECT_TRUE(r->recorded[kCrashAt - 1].active[3]);
    for (std::size_t t = kCrashAt; t < r->recorded.size(); ++t) {
      ASSERT_FALSE(r->recorded[t].active[3]) << t;
      ASSERT_EQ(r->recorded[t].info[3].seg, Seg::Off) << t;
    }
    for (std::size_t t = r->recorded.size() - kIdleBits;
         t < r->recorded.size(); ++t) {
      const BitRecord& rec = r->recorded[t];
      ASSERT_EQ(rec.bus, Level::Recessive) << t;
      for (std::size_t i = 0; i < rec.info.size(); ++i) {
        if (rec.active[i]) {
          ASSERT_EQ(rec.info[i].seg, Seg::Idle) << t;
        }
      }
    }
  }
}

/// Counts records without allocating.
class BitCounter final : public TraceObserver {
 public:
  void on_bit(const BitRecord&) override { ++bits; }

  BitTime bits = 0;
};

TEST(ObserverPath, ObservedBitsReuseTheRecord) {
  // Building a fresh record costs five heap vectors per bit; refilling the
  // simulator's one record costs none once its arrays are sized.  What
  // remains is the controllers' own event bookkeeping while a frame is in
  // flight and, on the fast kernel, its periodic regrouping scan.
  constexpr BitTime kBits = 100;
  for (KernelKind k : {KernelKind::Ref, KernelKind::Fast}) {
    SCOPED_TRACE(kernel_name(k));
    ScopedKernel scoped(k);
    Network net(5, ProtocolParams::standard_can());
    BitCounter counter;
    net.sim().add_observer(counter);
    net.node(0).enqueue(Frame::make_blank(0x100, 8));
    ASSERT_TRUE(net.run_until_quiet(5000));

    net.node(1).enqueue(Frame::make_blank(0x100, 8));
    const long bits_before = counter.bits;
    const std::size_t busy_from = g_allocations.load();
    net.sim().run(kBits);
    const std::size_t busy = g_allocations.load() - busy_from;
    ASSERT_EQ(counter.bits - bits_before, kBits);
    EXPECT_LT(busy, static_cast<std::size_t>(kBits / 2));

    ASSERT_TRUE(net.run_until_quiet(5000));
    const std::size_t idle_from = g_allocations.load();
    net.sim().run(kBits);
    const std::size_t idle = g_allocations.load() - idle_from;
    if (k == KernelKind::Ref) {
      EXPECT_EQ(idle, 0u);
    } else {
      EXPECT_LT(idle, static_cast<std::size_t>(kBits / 2));
    }
  }
}

// --- the scenario corpus -------------------------------------------------

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(MCAN_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scn") files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// What a run leaves behind on the bus.
struct BusEnd {
  std::string events;  ///< the event log, one line per event
  std::vector<std::vector<std::string>> deliveries;  ///< per node: frame@t
  std::string states;  ///< every node's append_state, in order
  BitTime now = 0;
};

/// The wire-level part of `spec` — scripted flips, attackers, the crash,
/// the probe frame, traffic and spoofed frames — on a raw Network,
/// stepped to quiescence plus a cooldown; optionally watched by a
/// BitCounter.
BusEnd run_wire_level(const ScenarioSpec& spec, bool observed) {
  Network net(spec.n_nodes, spec.protocol);
  BitCounter counter;
  if (observed) net.sim().add_observer(counter);
  ScriptedFaults scripted(spec.flips);
  AttackEngine attacker(spec.attacks);
  CompositeInjector faults;
  faults.add(scripted);
  faults.add(attacker);
  net.set_injector(faults);
  if (spec.crash) {
    net.sim().schedule_crash(spec.crash->first, spec.crash->second);
  }
  net.node(0).enqueue(make_tagged_frame(
      spec.frame_id, MsgKind::Data, MessageKey{0, 1},
      std::max<std::uint8_t>(4, spec.frame_dlc)));
  for (std::size_t j = 0; j < spec.traffic.size(); ++j) {
    const TrafficFrame& t = spec.traffic[j];
    const auto sender =
        static_cast<NodeId>(t.sender % static_cast<NodeId>(spec.n_nodes));
    net.node(static_cast<int>(sender))
        .enqueue(make_tagged_frame(
            t.id, MsgKind::Data,
            MessageKey{sender, static_cast<std::uint16_t>(100 + j)},
            std::max<std::uint8_t>(4, t.dlc)));
  }
  for (const AttackSpec& a : spec.attacks) {
    if (a.kind != AttackKind::Spoof) continue;
    for (const MessageKey& key : spoof_keys(a)) {
      net.node(static_cast<int>(a.attacker %
                                static_cast<std::uint32_t>(spec.n_nodes)))
          .enqueue(make_tagged_frame(a.id, MsgKind::Data, key,
                                     std::max<std::uint8_t>(4, a.dlc)));
    }
  }
  (void)net.run_until_quiet(30000);
  net.sim().run(static_cast<BitTime>(2 * spec.protocol.eof_bits()));

  BusEnd end;
  for (const Event& e : net.log().events()) end.events += e.to_string() + "\n";
  for (int i = 0; i < net.size(); ++i) {
    end.deliveries.emplace_back();
    for (const Delivery& d : net.deliveries(i)) {
      end.deliveries.back().push_back(d.frame.to_string() + "@" +
                                      std::to_string(d.t));
    }
    net.node(i).append_state(end.states);
  }
  end.now = net.sim().now();
  if (observed) {
    EXPECT_EQ(counter.bits, end.now) << "an observer sees every bit";
  }
  return end;
}

TEST(ObserverPath, UnobservedRunsMatchObservedRunsOnTheCorpus) {
  // Without an observer the kernels keep only what a bit itself reads
  // and skip idle stretches; with one they fill the whole record every
  // bit.  Neither may change what the run does.
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty());
  for (KernelKind k : {KernelKind::Ref, KernelKind::Fast}) {
    ScopedKernel scoped(k);
    for (const std::string& path : files) {
      SCOPED_TRACE(std::string(kernel_name(k)) + " " + path);
      const ScenarioSpec spec = load_scenario_file(path);
      const BusEnd plain = run_wire_level(spec, false);
      const BusEnd observed = run_wire_level(spec, true);
      EXPECT_FALSE(plain.events.empty());
      EXPECT_EQ(plain.events, observed.events);
      EXPECT_EQ(plain.deliveries, observed.deliveries);
      EXPECT_EQ(plain.states, observed.states);
      EXPECT_EQ(plain.now, observed.now);
    }
  }
}

// --- run_scenario's trace opt-in -----------------------------------------

TEST(TraceOptIn, TracedAndUntracedRunsAgreeOnEveryScenario) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty());
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const ScenarioSpec spec = load_scenario_file(path);
    const DslRunResult plain = run_any_scenario(spec);
    const DslRunResult traced = run_any_scenario(spec, {}, /*trace=*/true);

    EXPECT_TRUE(plain.outcome.trace.empty());
    if (!spec.rsm) {
      EXPECT_FALSE(traced.outcome.trace.empty());
    }

    EXPECT_EQ(plain.invariants.total, traced.invariants.total);
    EXPECT_EQ(plain.invariants.by_rule, traced.invariants.by_rule);
    EXPECT_EQ(plain.invariants.bits_checked, traced.invariants.bits_checked);
    EXPECT_EQ(plain.ab.summary(), traced.ab.summary());
    EXPECT_EQ(plain.outcome.deliveries, traced.outcome.deliveries);
    EXPECT_EQ(plain.outcome.tx_attempts, traced.outcome.tx_attempts);
    EXPECT_EQ(plain.outcome.tx_success, traced.outcome.tx_success);
    EXPECT_EQ(plain.attack.summary(), traced.attack.summary());
    EXPECT_EQ(plain.attack.busoff_t, traced.attack.busoff_t);
    EXPECT_EQ(plain.attack.victim_peak_tec, traced.attack.victim_peak_tec);
    EXPECT_EQ(plain.attack.spoofed_delivered, traced.attack.spoofed_delivered);
    EXPECT_EQ(plain.expectation_met, traced.expectation_met);
    EXPECT_EQ(plain.quiesced, traced.quiesced);
  }
}

struct PinnedVerdict {
  const char* what;
  ScenarioSpec spec;
  std::uint32_t classes;
  const char* sig_hex;
};

TEST(TraceOptIn, FuzzVerdictsArePinned) {
  // Fuzz verdicts run untraced.  Their classes and coverage signatures
  // were recorded when every exec still recorded and rendered the trace;
  // dropping it must not move a single bit.
  const auto scn = [](const char* name) {
    return load_scenario_file(std::string(MCAN_SCENARIO_DIR) + "/" + name);
  };
  const std::uint32_t kAgreement = fuzz_class_bit(FuzzClass::Agreement);
  const std::vector<PinnedVerdict> pins = {
      {"seed can n=8", seed_scenario(ProtocolParams::standard_can(), 8),
       0,
       "2000000000008030.0000040200020000.0000000000000000.0000000000000000."
       "0000000020000001"},
      {"seed major5 n=5", seed_scenario(ProtocolParams::major_can(5), 5),
       0,
       "2000000000008030.0000040200020000.0000000000000000.0000000000000000."
       "0000000080000001"},
      {"fuzz_can_k2_imo", scn("fuzz_can_k2_imo.scn"), kAgreement,
       "2000000002008030.0002000200020000.0022000200000008.0000000000000000."
       "0000000020010002"},
      {"fuzz_minorcan_k2_imo", scn("fuzz_minorcan_k2_imo.scn"),
       kAgreement,
       "2000000002008030.0002000200020000.0022000200000008.0000000000000000."
       "0000000040010004"},
      {"fuzz_majorcan_body_imo", scn("fuzz_majorcan_body_imo.scn"),
       kAgreement,
       "0000000000008030.00800002000a0400.0022000000000008.0000000040000000."
       "0000000080010004"},
  };
  for (const PinnedVerdict& p : pins) {
    SCOPED_TRACE(p.what);
    const FuzzVerdict v = run_fuzz_case(p.spec);
    EXPECT_EQ(v.classes, p.classes) << fuzz_classes_to_string(v.classes);
    EXPECT_EQ(v.sig.to_hex(), p.sig_hex);
  }
}

}  // namespace
}  // namespace mcan
