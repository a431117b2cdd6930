// The bit-synchronous simulation kernel.
//
// Owns nothing: participants, injector and trace observers are attached by
// reference and must outlive the simulator.  Each step() advances global
// time by one bit:
//   1. every active participant drives a level;
//   2. the bus resolves by wired-AND (dominant wins);
//   3. every active participant samples its own — possibly disturbed —
//      view of the bus and advances its FSM.
// Crashes are scheduled against absolute bit times and take effect before
// the drive phase of that bit.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "sim/bus.hpp"
#include "sim/injector.hpp"
#include "util/bit.hpp"

namespace mcan {

class TraceObserver;
class FastKernel;

/// Per-bit record handed to trace observers.
struct BitRecord {
  BitTime t = 0;
  Level bus = Level::Recessive;
  // Parallel arrays, one entry per attached node (in attach order).
  std::vector<Level> driven;
  std::vector<Level> view;
  std::vector<NodeBitInfo> info;
  std::vector<bool> disturbed;
  std::vector<bool> active;
};

/// A pluggable bit engine.  The simulator's own per-bit loop
/// (step_reference) is the specification; an installed backend replaces it
/// with an optimized execution of the *same* semantics — every observable
/// (events, traces, deliveries, participant state, clock) must be
/// bit-identical.  Backends are owned by the simulator and torn down (after
/// flushing any internally shared state back into the participants) before
/// the participants they reference die.
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  /// Advance exactly one bit time.
  virtual void step() = 0;

  /// Advance `n` bit times; the only entry point allowed to fast-forward
  /// multiple bits at once (per-bit predicates don't exist here).
  virtual void run(BitTime n) = 0;

  /// The participant topology changed (attach).
  virtual void on_attach() = 0;

  /// Write any internally shared participant state back into the real
  /// participants, so they can be read (or the backend destroyed) safely.
  virtual void flush() = 0;
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();

  /// Attach a participant (non-owning; must outlive the simulator).
  void attach(BusParticipant& node);

  /// Install the fault injector (non-owning).  Default: clean channel.
  void set_injector(FaultInjector& inj) { injector_ = &inj; }

  /// Drop the installed injector (back to the clean channel), so a
  /// simulator that outlives its injector holds no pointer to it.
  void clear_injector() { injector_ = nullptr; }

  /// Install a trace observer (non-owning).  Optional.
  void add_observer(TraceObserver& obs) { observers_.push_back(&obs); }

  /// Detach a previously added observer (no-op if absent), so an observer
  /// with a shorter lifetime than the simulator can unhook itself.
  void remove_observer(TraceObserver& obs);

  /// Mark a node crashed (fail-silent) from bit time `t` on.
  void schedule_crash(NodeId node, BitTime t);

  /// Install (or, with nullptr, remove) a kernel backend.  The previous
  /// backend is flushed and destroyed.  Install after attaching the
  /// participants the backend should know about; later attaches are
  /// forwarded via KernelBackend::on_attach.
  void install_kernel(std::unique_ptr<KernelBackend> k);
  [[nodiscard]] KernelBackend* kernel() const { return kernel_.get(); }

  /// Advance one bit time.
  void step();

  /// Advance `n` bit times.
  void run(BitTime n);

  /// Run until `pred()` is true or `max_bits` elapsed; returns true if the
  /// predicate fired.
  bool run_until(const std::function<bool()>& pred, BitTime max_bits);

  [[nodiscard]] BitTime now() const { return now_; }

  /// Put the simulator back into a just-constructed simulator's state,
  /// keeping its participants and observers: clock at 0, no crash
  /// scheduled, no injector, no kernel backend (it is flushed and
  /// destroyed), idle hint set.  Participant state is left as it is.
  void restart();

  /// Set the clock without stepping.  Model-checker use only: after cloning
  /// all participants' runtime state from a template bus that was stepped to
  /// `t`, warping aligns this simulator's clock so absolute-time fault
  /// targets and traces line up with the cloned state.  Meaningless (and
  /// unsound) unless every attached participant's state matches time `t`.
  void warp_to(BitTime t) { now_ = t; }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// True iff the node was administratively crashed by schedule_crash.
  [[nodiscard]] bool crashed(NodeId node) const;

 private:
  friend class FastKernel;

  struct Slot {
    BusParticipant* node = nullptr;
    NodeId id = 0;  ///< node->id(), read once at attach
    BitTime crash_at = kNoTime;
    bool crashed = false;
  };

  /// The specification kernel: one bit, full per-participant loop.
  void step_reference();

  /// Fire crashes scheduled at or before now_ (cheap when none pending).
  void activate_crashes();

  [[nodiscard]] FaultInjector& effective_injector() {
    return injector_ ? *injector_ : no_faults_;
  }

  std::vector<Slot> nodes_;
  NoFaults no_faults_;
  FaultInjector* injector_ = nullptr;
  std::vector<TraceObserver*> observers_;
  BitTime now_ = 0;
  std::unique_ptr<KernelBackend> kernel_;
  int pending_crashes_ = 0;  ///< scheduled, not yet fired

  // Reference-kernel idle hint: set when the previous bit resolved
  // recessive, so the quiescence scan only runs when the bus is plausibly
  // idle and saturated workloads never pay for it.
  bool maybe_idle_ = true;

  // The one per-bit record: both kernels fill it in place (it doubles as
  // their drive/view scratch), so its capacity is reused and a bit needs
  // no heap allocation.  Observers see it only for the duration of on_bit.
  // Without observers a kernel keeps only the entries its own bit reads
  // current (active, view, and info of active nodes).
  BitRecord rec_;
};

class TraceObserver {
 public:
  virtual ~TraceObserver() = default;
  /// Called once per simulated bit, observers in the order they were added.
  /// `rec` is the simulator's own record, refilled in place every bit: it
  /// is valid only for the duration of the call.  An observer that needs
  /// the bit later must copy it (TraceRecorder does).
  virtual void on_bit(const BitRecord& rec) = 0;
};

}  // namespace mcan
