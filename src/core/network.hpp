// Convenience assembly of a complete simulated bus: N controllers of one
// protocol variant, an event log, a trace recorder and the simulator,
// wired together with per-node delivery journals.  This is the entry point
// most examples, tests and benches use.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace mcan {

/// One recorded delivery at one node.
struct Delivery {
  Frame frame;
  BitTime t = 0;
};

class Network {
 public:
  /// Build `n` nodes (ids 0..n-1) speaking `protocol`.
  Network(int n, const ProtocolParams& protocol,
          const FaultConfinementConfig& fc = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] CanController& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const CanController& node(int i) const {
    return *nodes_.at(static_cast<std::size_t>(i));
  }

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] const Simulator& sim() const { return sim_; }
  [[nodiscard]] EventLog& log() { return log_; }
  [[nodiscard]] const EventLog& log() const { return log_; }
  [[nodiscard]] TraceRecorder& trace() { return trace_; }

  /// Frames delivered at node `i`, in delivery order.
  [[nodiscard]] const std::vector<Delivery>& deliveries(int i) const {
    return deliveries_.at(static_cast<std::size_t>(i));
  }

  /// Put the bus back into a freshly constructed bus's state, apart from
  /// the controllers' runtime state (clone_bus overwrites all of it, see
  /// scenario/probe.hpp): journals, event log and trace emptied with their
  /// capacity kept, the simulator restarted (Simulator::restart), and the
  /// kernel backend of the current default kernel installed afresh.
  /// Observers stay attached.
  void restart();

  /// Enable per-bit trace recording (off by default: it is memory-hungry).
  void enable_trace();

  /// Install a fault injector for the whole bus.
  void set_injector(FaultInjector& inj) { sim_.set_injector(inj); }

  /// Run until every live node is idle with nothing queued, or `max_bits`.
  /// Returns true if the bus quiesced.  The stop rule: one unconditional
  /// step (so a just-enqueued frame gets started), then quiet() is tested
  /// before every further step, at most `max_bits` of them, and once more
  /// at the end.
  bool run_until_quiet(BitTime max_bits = 100000);

  /// The quiescence predicate run_until_quiet stops on: every live node is
  /// idle with nothing queued.
  [[nodiscard]] bool quiet() const;

  /// Node labels ("tx 0", "rx 1", ...) for the trace renderer.
  [[nodiscard]] std::vector<std::string> labels() const;

 private:
  /// The process-global default kernel's backend, if it is not the
  /// reference loop.
  void install_default_kernel();

  // Declaration order is a lifetime contract: sim_ last, so its destructor
  // (which flushes an installed kernel backend's shared state back into
  // the controllers) runs while the controllers are still alive.
  EventLog log_;
  TraceRecorder trace_;
  std::vector<std::vector<Delivery>> deliveries_;
  std::vector<std::unique_ptr<CanController>> nodes_;
  Simulator sim_;
};

}  // namespace mcan
