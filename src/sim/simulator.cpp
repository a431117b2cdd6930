#include "sim/simulator.hpp"

#include <stdexcept>

namespace mcan {

Simulator::~Simulator() {
  // Flush before the backend dies so participants that outlive the
  // simulator (the documented lifetime contract) carry their true state.
  if (kernel_) kernel_->flush();
}

void Simulator::attach(BusParticipant& node) {
  const NodeId id = node.id();
  for (const Slot& s : nodes_) {
    if (s.id == id) throw std::invalid_argument("duplicate node id on bus");
  }
  nodes_.push_back(Slot{&node, id, kNoTime, false});
  if (kernel_) kernel_->on_attach();
}

void Simulator::restart() {
  install_kernel(nullptr);
  for (Slot& s : nodes_) {
    s.crash_at = kNoTime;
    s.crashed = false;
  }
  pending_crashes_ = 0;
  injector_ = nullptr;
  now_ = 0;
  maybe_idle_ = true;
}

void Simulator::install_kernel(std::unique_ptr<KernelBackend> k) {
  if (kernel_) kernel_->flush();
  kernel_ = std::move(k);
}

void Simulator::schedule_crash(NodeId node, BitTime t) {
  for (Slot& s : nodes_) {
    if (s.id == node) {
      if (!s.crashed && s.crash_at == kNoTime) ++pending_crashes_;
      s.crash_at = t;
      return;
    }
  }
  throw std::invalid_argument("schedule_crash: unknown node");
}

void Simulator::remove_observer(TraceObserver& obs) {
  std::erase(observers_, &obs);
}

bool Simulator::crashed(NodeId node) const {
  for (const Slot& s : nodes_) {
    if (s.id == node) return s.crashed;
  }
  return false;
}

void Simulator::activate_crashes() {
  if (pending_crashes_ == 0) return;
  for (Slot& s : nodes_) {
    if (!s.crashed && s.crash_at != kNoTime && now_ >= s.crash_at) {
      s.crashed = true;
      --pending_crashes_;
    }
  }
}

void Simulator::step() {
  if (kernel_) {
    kernel_->step();
    return;
  }
  step_reference();
}

void Simulator::step_reference() {
  const std::size_t n = nodes_.size();
  const bool records = !observers_.empty();

  FaultInjector& inj = effective_injector();

  // Apply scheduled crashes for this bit time.
  activate_crashes();

  // Idle short-circuit: when the previous bit resolved recessive, probe
  // whether every participant is in its idle fixed point and the injector
  // promises this bit is disturbance-free — then the whole bit is a no-op
  // except the clock.  Observers force the full path (they get a record
  // per bit); the hint keeps saturated workloads from ever paying for the
  // scan.
  if (maybe_idle_ && !records) {
    bool all_quiescent = true;
    for (const Slot& s : nodes_) {
      if (s.crashed || !s.node->active()) continue;
      if (!s.node->quiescent()) {
        all_quiescent = false;
        break;
      }
    }
    if (!all_quiescent) {
      maybe_idle_ = false;
    } else if (inj.quiet_until(now_) > now_) {
      ++now_;
      return;
    }
  }

  // Without observers only what this bit reads is written: the latched
  // participation, each active node's info, and every view.
  BitRecord& rec = rec_;
  rec.active.resize(n);
  rec.info.resize(n);
  rec.view.resize(n);
  if (records) {
    rec.t = now_;
    rec.driven.assign(n, Level::Recessive);
    rec.disturbed.assign(n, false);
  }

  // Phase 1: drive.  Participation is latched here and reused by the view
  // and sample phases: a node whose fault-confinement state flips to
  // bus-off during this bit's sample phase still drove this bit, and the
  // trace record must agree with the resolution (the wired-AND invariant
  // checks record-internal consistency).
  Level bus = Level::Recessive;
  for (std::size_t i = 0; i < n; ++i) {
    Slot& s = nodes_[i];
    const bool on = !s.crashed && s.node->active();
    rec.active[i] = on;
    if (!on) {
      if (records) {
        rec.info[i] = NodeBitInfo{};
        rec.info[i].seg = Seg::Off;
      }
      continue;
    }
    const Level driven = s.node->drive(now_);
    if (records) rec.driven[i] = driven;
    rec.info[i] = s.node->bit_info();
    bus = bus & driven;
  }
  rec.bus = bus;

  // Phase 2: resolve views and sample.
  for (std::size_t i = 0; i < n; ++i) {
    if (!rec.active[i]) {
      rec.view[i] = bus;
      continue;
    }
    const bool f = inj.flips(nodes_[i].id, now_, rec.info[i], bus);
    if (records) rec.disturbed[i] = f;
    rec.view[i] = f ? flip(bus) : bus;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (rec.active[i]) nodes_[i].node->sample(now_, rec.view[i]);
  }

  // Phase 3: trace.
  for (TraceObserver* obs : observers_) obs->on_bit(rec);

  maybe_idle_ = bus == Level::Recessive;
  ++now_;
}

void Simulator::run(BitTime n) {
  if (kernel_) {
    kernel_->run(n);
    return;
  }
  for (BitTime i = 0; i < n; ++i) step_reference();
}

bool Simulator::run_until(const std::function<bool()>& pred, BitTime max_bits) {
  for (BitTime i = 0; i < max_bits; ++i) {
    if (pred()) return true;
    step();
  }
  return pred();
}

}  // namespace mcan
