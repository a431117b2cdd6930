// The fast kernel: an event-skipping, symmetry-grouped bit engine.
//
// Semantics are pinned to Simulator::step_reference — every observable
// (events, deliveries, traces, participant state, the clock) must be
// bit-identical; the simfast differential suite certifies this over the
// whole scenario corpus plus fixed-seed fuzz/rare campaigns.  The speed
// comes from three mechanisms:
//
//   1. *Symmetry groups.*  Controllers whose configuration and complete
//      runtime state are equal — the classic case: every receiver of a
//      saturated bus — provably evolve in lockstep while their sampled
//      views agree.  The kernel carries each group's state in one hidden
//      "shadow" controller and advances it once per bit instead of once
//      per member.  Members point at the shadow (CanController::proxy_);
//      reads go through it, and any external mutation first materializes
//      the state back (detach_shared_state) and tells the kernel to eject
//      the member.  Bits whose sample could emit an event or fire a
//      handler are *trialed* on the shadow against a muted scratch log;
//      if anything surfaced, members re-run the bit for real, in attach
//      order, so the shared event log and the delivery journals see
//      exactly the reference sequence.
//
//   2. *Event skipping.*  When every participant is in its idle fixed
//      point and the injector promises a disturbance-free stretch
//      (FaultInjector::quiet_until), whole-bus idle advances the clock
//      without touching any node — O(1) per bit from step(), one jump to
//      the horizon from run().
//
//   3. *Word batching.*  A lone transmitter inside the stuffed body
//      (SOF..CRC) with only passive listeners on the bus has its next
//      <= 64 wire levels captured into one machine word from the
//      precomputed TxEngine stream; the kernel replays them without the
//      per-bit drive/resolve/flip scaffolding, falling back to the full
//      path the moment any listener's sample stops being silent.
//
// Mid-bit caveat (documented, certified empirically): on a bit where a
// group stays silent, member state advances at whole-bit granularity —
// a delivery handler running mid-bit on another node observes a silent
// group member's *end-of-bit* state.  No engine in this repo reads a
// third node's counters from inside a handler; the differential suite
// would catch one that starts to.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"

namespace mcan {

class FastKernel final : public KernelBackend {
 public:
  explicit FastKernel(Simulator& sim);
  ~FastKernel() override;

  void step() override;
  void run(BitTime n) override;
  void on_attach() override;
  void flush() override;

  /// Called by CanController::detach_shared_state when a grouped member is
  /// externally mutated: the member has already materialized its state;
  /// the kernel ejects it from its group before the next bit.
  void note_extern_mutation(std::uint32_t index);

  /// Paranoid mode: after every member re-run, verify the member's state
  /// digest against the group shadow, and re-check silence promises in the
  /// word-batched path.  Costly; the differential tests switch it on.
  static void set_paranoid(bool on);
  [[nodiscard]] static bool paranoid();

 private:
  struct Group {
    std::unique_ptr<EventLog> scratch;        ///< muted shadow event sink
    std::unique_ptr<CanController> shadow;    ///< carries the shared state
    std::unique_ptr<CanController> prev;      ///< pre-sample copy for re-runs
    std::vector<std::uint32_t> members;       ///< slot indices, ascending
    bool live = false;
    std::uint64_t mark = 0;                   ///< batch-scan dedup stamp
    // Per-bit scratch.
    bool active = false;
    Level driven = Level::Recessive;
    NodeBitInfo info;
    bool dirty = false;
  };

  void sync_topology();
  void drain_pending();
  void rebuild_groups();
  void add_member(int gi, std::uint32_t idx);
  void drop_member(std::uint32_t idx);
  void materialize(CanController& c);
  [[nodiscard]] bool all_quiescent() const;
  [[nodiscard]] bool compatible(const CanController& a,
                                const CanController& b) const;
  void ensure_prev(Group& g);
  void rebuild_singles();
  void step_bit(FaultInjector& inj, bool quiet_inj);
  /// The quiet-bit specialization of step_bit: no injector calls, no trace
  /// records, so the per-bit work touches only group shadows and the cached
  /// ungrouped list — nothing scales with the member count.
  void step_bit_quiet();
  [[nodiscard]] BitTime crash_horizon() const;
  /// Replay up to 64 transmitter body bits in one word; returns the number
  /// of bits consumed (0 = preconditions not met, caller takes the per-bit
  /// path).
  BitTime try_word_batch(BitTime end, BitTime quiet_horizon);

  Simulator& sim_;
  std::vector<CanController*> ctrl_;       ///< per slot; null for non-CAN
  std::vector<int> group_of_;              ///< per slot; -1 = ungrouped
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<std::uint32_t> touched_;     ///< externally mutated members
  std::vector<std::uint32_t> singles_;     ///< ungrouped slots, ascending
  std::vector<std::uint32_t> live_singles_;  ///< per-bit: active singles
  bool singles_dirty_ = true;
  BitTime next_rebuild_ = 0;
  bool topo_dirty_ = true;
  std::uint64_t batch_seq_ = 0;

  // Word-batch entity lists, rebuilt per attempt (slot order).
  std::vector<Group*> batch_groups_;
  std::vector<CanController*> batch_followers_;

  std::string key_a_, key_b_;              ///< digest scratch
};

/// Factory used by Network when the process-global kernel default says
/// Fast (sim/kernel.hpp); keeps call sites free of the concrete type.
[[nodiscard]] std::unique_ptr<KernelBackend> make_fast_kernel(Simulator& sim);

}  // namespace mcan
