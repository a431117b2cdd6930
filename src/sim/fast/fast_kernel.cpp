#include "sim/fast/fast_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace mcan {

namespace {

/// Regroup cadence: how often ungrouped controllers are re-scanned for
/// symmetry.  Ejected members (a finished transmitter, a disturbed
/// receiver) pay at most this many solo bits before rejoining.
constexpr BitTime kRegroupInterval = 128;

/// Minimum worthwhile word-batch: below this the setup scan costs more
/// than the per-bit path it bypasses.
constexpr int kMinBatchBits = 8;

std::atomic<bool> g_paranoid{false};

NodeBitInfo off_info() {
  NodeBitInfo info;
  info.seg = Seg::Off;
  return info;
}

}  // namespace

void FastKernel::set_paranoid(bool on) {
  g_paranoid.store(on, std::memory_order_relaxed);
}

bool FastKernel::paranoid() {
  return g_paranoid.load(std::memory_order_relaxed);
}

FastKernel::FastKernel(Simulator& sim) : sim_(sim) { sync_topology(); }

FastKernel::~FastKernel() { flush(); }

void FastKernel::on_attach() { topo_dirty_ = true; }

void FastKernel::note_extern_mutation(std::uint32_t index) {
  touched_.push_back(index);
}

void FastKernel::sync_topology() {
  const std::size_t n = sim_.nodes_.size();
  const std::size_t old = ctrl_.size();
  ctrl_.resize(n, nullptr);
  group_of_.resize(n, -1);
  for (std::size_t i = old; i < n; ++i) {
    ctrl_[i] = dynamic_cast<CanController*>(sim_.nodes_[i].node);
  }
  topo_dirty_ = false;
  singles_dirty_ = true;
  next_rebuild_ = sim_.now_;  // new arrivals are grouping candidates
}

void FastKernel::rebuild_singles() {
  singles_.clear();
  for (std::size_t i = 0; i < sim_.nodes_.size(); ++i) {
    if (group_of_[i] < 0) singles_.push_back(static_cast<std::uint32_t>(i));
  }
  singles_dirty_ = false;
}

void FastKernel::materialize(CanController& c) {
  if (c.proxy_ != nullptr) {
    const CanController* p = c.proxy_;
    c.proxy_ = nullptr;
    c.copy_runtime_state_from(*p);
  }
  c.fast_owner_ = nullptr;
  c.fast_touched_ = false;
}

void FastKernel::drop_member(std::uint32_t idx) {
  const int gi = group_of_[idx];
  if (gi < 0) return;
  singles_dirty_ = true;
  Group& g = *groups_[gi];
  materialize(*ctrl_[idx]);
  group_of_[idx] = -1;
  std::erase(g.members, idx);
  if (g.members.size() < 2) {
    // A group of one is pure overhead: dissolve it.
    for (std::uint32_t m : g.members) {
      materialize(*ctrl_[m]);
      group_of_[m] = -1;
    }
    g.members.clear();
    g.live = false;
    groups_[gi].reset();
  }
}

void FastKernel::drain_pending() {
  if (!touched_.empty()) {
    for (std::uint32_t idx : touched_) drop_member(idx);
    touched_.clear();
  }
  if (sim_.pending_crashes_ > 0) {
    for (std::size_t i = 0; i < sim_.nodes_.size(); ++i) {
      Simulator::Slot& s = sim_.nodes_[i];
      if (!s.crashed && s.crash_at != kNoTime && sim_.now_ >= s.crash_at) {
        s.crashed = true;
        --sim_.pending_crashes_;
        if (group_of_[i] >= 0) drop_member(static_cast<std::uint32_t>(i));
      }
    }
  }
}

BitTime FastKernel::crash_horizon() const {
  if (sim_.pending_crashes_ == 0) return kNoTime;
  BitTime h = kNoTime;
  for (const Simulator::Slot& s : sim_.nodes_) {
    if (!s.crashed && s.crash_at != kNoTime) h = std::min(h, s.crash_at);
  }
  return h;
}

bool FastKernel::compatible(const CanController& a,
                            const CanController& b) const {
  return a.cfg_.protocol == b.cfg_.protocol && a.cfg_.fc == b.cfg_.fc &&
         a.cfg_.ack_enabled == b.cfg_.ack_enabled &&
         a.cfg_.auto_retransmit == b.cfg_.auto_retransmit &&
         a.cfg_.busoff_auto_recovery == b.cfg_.busoff_auto_recovery;
}

void FastKernel::add_member(int gi, std::uint32_t idx) {
  Group& g = *groups_[gi];
  CanController& c = *ctrl_[idx];
  c.proxy_ = g.shadow.get();
  c.fast_owner_ = this;
  c.fast_index_ = idx;
  c.fast_touched_ = false;
  group_of_[idx] = gi;
  g.members.push_back(idx);
  singles_dirty_ = true;
}

void FastKernel::rebuild_groups() {
  next_rebuild_ = sim_.now_ + kRegroupInterval;

  // Candidates: ungrouped controllers whose behaviour is provably shared —
  // on the bus, nothing queued (so drive() is pure and the shadow can never
  // start a transmission), not about to crash into a different trajectory.
  std::vector<std::uint32_t> cand;
  for (std::size_t i = 0; i < sim_.nodes_.size(); ++i) {
    if (group_of_[i] >= 0) continue;
    CanController* c = ctrl_[i];
    if (c == nullptr) continue;
    const Simulator::Slot& s = sim_.nodes_[i];
    if (s.crashed || !c->active()) continue;
    if (!c->queue_.empty()) continue;
    cand.push_back(static_cast<std::uint32_t>(i));
  }
  if (cand.empty()) return;

  // First offer candidates to existing groups, then pair the rest up.
  // The digest (append_state) covers every behaviour-bearing runtime
  // field except frame_index_, which bit_info() publishes to injectors,
  // so it is matched separately.
  std::vector<std::uint32_t> rest;
  for (std::uint32_t idx : cand) {
    CanController& c = *ctrl_[idx];
    key_a_.clear();
    c.append_state(key_a_);
    bool joined = false;
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      if (!groups_[gi] || !groups_[gi]->live) continue;
      CanController& sh = *groups_[gi]->shadow;
      if (!compatible(c, sh) || c.frame_index_ != sh.frame_index_) continue;
      key_b_.clear();
      sh.append_state(key_b_);
      if (key_a_ != key_b_) continue;
      add_member(static_cast<int>(gi), idx);
      joined = true;
      break;
    }
    if (!joined) rest.push_back(idx);
  }

  // Pair remaining candidates into new groups (first match wins; the scan
  // is quadratic in the ungrouped population, which the regroup cadence
  // keeps small).
  std::vector<bool> taken(rest.size(), false);
  for (std::size_t a = 0; a < rest.size(); ++a) {
    if (taken[a]) continue;
    CanController& ca = *ctrl_[rest[a]];
    key_a_.clear();
    ca.append_state(key_a_);
    std::vector<std::uint32_t> members{rest[a]};
    for (std::size_t b = a + 1; b < rest.size(); ++b) {
      if (taken[b]) continue;
      CanController& cb = *ctrl_[rest[b]];
      if (!compatible(ca, cb) || ca.frame_index_ != cb.frame_index_) continue;
      key_b_.clear();
      cb.append_state(key_b_);
      if (key_a_ != key_b_) continue;
      taken[b] = true;
      members.push_back(rest[b]);
    }
    if (members.size() < 2) continue;

    int gi = -1;
    for (std::size_t s = 0; s < groups_.size(); ++s) {
      if (!groups_[s]) {
        gi = static_cast<int>(s);
        break;
      }
    }
    if (gi < 0) {
      gi = static_cast<int>(groups_.size());
      groups_.emplace_back();
    }
    auto g = std::make_unique<Group>();
    g->scratch = std::make_unique<EventLog>();
    g->shadow = std::make_unique<CanController>(ca.cfg_, *g->scratch);
    g->shadow->copy_runtime_state_from(ca);
    g->shadow->frame_index_ = ca.frame_index_;
    g->live = true;
    groups_[gi] = std::move(g);
    for (std::uint32_t m : members) add_member(gi, m);
  }
}

void FastKernel::ensure_prev(Group& g) {
  if (!g.prev) {
    g.prev = std::make_unique<CanController>(g.shadow->cfg_, *g.scratch);
  }
}

bool FastKernel::all_quiescent() const {
  for (const auto& gp : groups_) {
    if (!gp || !gp->live) continue;
    const CanController& sh = *gp->shadow;
    if (sh.active() && !sh.quiescent()) return false;
  }
  for (std::uint32_t i : singles_) {
    const Simulator::Slot& s = sim_.nodes_[i];
    if (s.crashed || !s.node->active()) continue;
    if (!s.node->quiescent()) return false;
  }
  return true;
}

void FastKernel::step() {
  if (topo_dirty_) sync_topology();
  drain_pending();
  if (sim_.now_ >= next_rebuild_) rebuild_groups();
  if (singles_dirty_) rebuild_singles();
  FaultInjector& inj = sim_.effective_injector();
  const bool quiet_inj = inj.quiet_until(sim_.now_) > sim_.now_;
  if (quiet_inj && sim_.observers_.empty() && all_quiescent()) {
    ++sim_.now_;  // whole-bus idle fixed point: the bit is a clock tick
    return;
  }
  step_bit(inj, quiet_inj);
}

void FastKernel::run(BitTime n) {
  const BitTime end = sim_.now_ + n;
  while (sim_.now_ < end) {
    if (topo_dirty_) sync_topology();
    drain_pending();
    if (sim_.now_ >= next_rebuild_) rebuild_groups();
    if (singles_dirty_) rebuild_singles();
    FaultInjector& inj = sim_.effective_injector();
    const BitTime quiet = inj.quiet_until(sim_.now_);
    if (sim_.observers_.empty() && quiet > sim_.now_) {
      // Idle jump: everything is in its fixed point, so the clock can leap
      // to the first instant anything could happen — the end of the quiet
      // promise, a scheduled crash, or the caller's horizon.
      if (all_quiescent()) {
        const BitTime target =
            std::min({end, quiet, crash_horizon()});
        if (target > sim_.now_) {
          sim_.now_ = target;
          continue;
        }
      }
      if (try_word_batch(end, quiet) > 0) continue;
    }
    const bool quiet_inj = quiet > sim_.now_;
    if (quiet_inj && sim_.observers_.empty() && all_quiescent()) {
      ++sim_.now_;
      continue;
    }
    step_bit(inj, quiet_inj);
  }
}

BitTime FastKernel::try_word_batch(BitTime end, BitTime quiet_horizon) {
  // Preconditions: exactly one transmitter, inside the stuffed body, and
  // every other on-bus participant a passive CAN listener that (a) drives
  // recessive, (b) cannot start driving otherwise without a non-silent
  // sample first, and (c) has its silence re-checked per bit.
  const BitTime t0 = sim_.now_;
  ++batch_seq_;
  batch_groups_.clear();
  batch_followers_.clear();
  CanController* tx = nullptr;
  for (std::size_t i = 0; i < sim_.nodes_.size(); ++i) {
    const Simulator::Slot& s = sim_.nodes_[i];
    if (s.crashed || !s.node->active()) continue;
    const int gi = group_of_[i];
    if (gi >= 0) {
      Group& g = *groups_[gi];
      if (g.mark == batch_seq_) continue;
      g.mark = batch_seq_;
      CanController& sh = *g.shadow;
      if (sh.st_ == CanController::St::RxTail && sh.will_ack_) return 0;
      if (!is_recessive(sh.drive(t0))) return 0;  // pure: queue is empty
      batch_groups_.push_back(&g);
      continue;
    }
    CanController* c = ctrl_[i];
    if (c == nullptr) return 0;  // generic participant: per-bit only
    if (c->st_ == CanController::St::Tx) {
      if (tx != nullptr) return 0;  // two transmitters: arbitration
      tx = c;
      continue;
    }
    // A queued frame may quietly reach drive() through Idle; a mid-frame
    // receiver cannot (acceptance/rejection is never silent).
    if (!c->queue_.empty() && c->st_ != CanController::St::Rx &&
        c->st_ != CanController::St::RxTail &&
        c->st_ != CanController::St::RxEof) {
      return 0;
    }
    if (c->st_ == CanController::St::RxTail && c->will_ack_) return 0;
    if (!is_recessive(c->drive(t0))) return 0;
    batch_followers_.push_back(c);
  }
  if (tx == nullptr) return 0;

  BitTime cap = std::min(end, quiet_horizon);
  cap = std::min(cap, crash_horizon());
  const BitTime span = cap - t0;
  int len = tx->txe_.stuffed_bits_left();
  if (static_cast<BitTime>(len) > span) len = static_cast<int>(span);
  if (len > 64) len = 64;
  if (len < kMinBatchBits) return 0;

  // Capture the transmitter's next wire levels into one word.  With a
  // lone transmitter and recessive listeners the wired-AND resolution of
  // each of these bits *is* the transmitted level.
  std::uint64_t word = 0;
  for (int j = 0; j < len; ++j) {
    if (is_dominant(tx->txe_.level_at(j))) word |= std::uint64_t{1} << j;
  }

  BitTime consumed = 0;
  for (int j = 0; j < len; ++j) {
    const Level lvl =
        ((word >> j) & 1) != 0 ? Level::Dominant : Level::Recessive;
    bool silent = true;
    for (Group* g : batch_groups_) {
      if (!g->shadow->sample_is_quiet(lvl)) {
        silent = false;
        break;
      }
    }
    if (silent) {
      for (CanController* c : batch_followers_) {
        if (!c->sample_is_quiet(lvl)) {
          silent = false;
          break;
        }
      }
    }
    if (!silent) break;  // fall back to the full per-bit path from here

    const BitTime t = sim_.now_;
    tx->sample(t, lvl);  // view == sent inside the body: silent by contract
    for (Group* g : batch_groups_) {
      const std::size_t before = g->scratch->events().size();
      g->shadow->sample(t, lvl);
      if (g->scratch->events().size() != before) {
        throw std::logic_error(
            "fast kernel: quiet-sample misprediction in word batch");
      }
    }
    for (CanController* c : batch_followers_) {
      std::size_t before = 0;
      if (paranoid()) before = c->log_->events().size();
      c->sample(t, lvl);
      if (paranoid() && c->log_->events().size() != before) {
        throw std::logic_error(
            "fast kernel: follower emitted during word batch");
      }
    }
    ++sim_.now_;
    ++consumed;
  }
  return consumed;
}

void FastKernel::step_bit(FaultInjector& inj, bool quiet_inj) {
  const BitTime t = sim_.now_;
  const std::size_t n = sim_.nodes_.size();
  const bool records = !sim_.observers_.empty();
  if (quiet_inj && !records) {
    // No injector calls and no trace record: every view equals the bus
    // level, so the O(n) scratch arrays below are pure overhead.
    step_bit_quiet();
    return;
  }
  const bool want_infos = records || !quiet_inj;

  // Fill the simulator's record in place; without observers only the
  // arrays this bit's own logic reads are kept current.
  BitRecord& rec = sim_.rec_;
  rec.view.assign(n, Level::Recessive);
  rec.active.assign(n, false);
  if (records) {
    rec.t = t;
    rec.driven.assign(n, Level::Recessive);
    rec.disturbed.assign(n, false);
  }
  if (want_infos) rec.info.resize(n);

  // Phase 1: drive.  Group shadows drive once for all members (pure: a
  // grouped queue is empty by construction, so drive() cannot start a
  // transmission); singletons drive exactly as the reference kernel.
  Level bus = Level::Recessive;
  for (auto& gp : groups_) {
    if (!gp || !gp->live) continue;
    Group& g = *gp;
    g.dirty = false;
    g.active = g.shadow->active();
    g.driven = Level::Recessive;
    if (!g.active) continue;
    g.driven = g.shadow->drive(t);
    if (want_infos) g.info = g.shadow->bit_info();
    bus = bus & g.driven;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const int gi = group_of_[i];
    if (gi >= 0) {
      const Group& g = *groups_[gi];
      if (g.active) {
        rec.active[i] = true;
        if (want_infos) rec.info[i] = g.info;
        if (records) rec.driven[i] = g.driven;
      } else if (records) {
        rec.info[i] = off_info();
      }
      continue;
    }
    Simulator::Slot& s = sim_.nodes_[i];
    if (s.crashed || !s.node->active()) {
      if (records) rec.info[i] = off_info();
      continue;
    }
    rec.active[i] = true;
    const Level d = s.node->drive(t);
    if (records) rec.driven[i] = d;
    if (want_infos) rec.info[i] = s.node->bit_info();
    bus = bus & d;
  }

  // Phase 2a: per-node views.  Injector calls happen for every active
  // node in attach order — the exact reference sequence, so stochastic
  // injectors consume an identical RNG stream.  A disturbed group member
  // is ejected: it adopts the (pre-sample) shadow state and finishes the
  // bit as a singleton.
  if (!quiet_inj) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!rec.active[i]) {
        rec.view[i] = bus;
        continue;
      }
      const bool f = inj.flips(sim_.nodes_[i].id, t, rec.info[i], bus);
      if (f) {
        rec.view[i] = flip(bus);
        if (records) rec.disturbed[i] = true;
        if (group_of_[i] >= 0) drop_member(static_cast<std::uint32_t>(i));
      } else {
        rec.view[i] = bus;
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) rec.view[i] = bus;
  }

  // Phase 2b: group trials.  A bit classified quiet advances the shadow
  // with a hard assertion; anything else is trialed against the muted
  // scratch log, and only if events surfaced do members re-run the bit.
  for (auto& gp : groups_) {
    if (!gp || !gp->live || !gp->active) continue;
    Group& g = *gp;
    const std::size_t before = g.scratch->events().size();
    if (g.shadow->sample_is_quiet(bus)) {
      g.shadow->sample(t, bus);
      if (g.scratch->events().size() != before) {
        throw std::logic_error("fast kernel: quiet-sample misprediction");
      }
    } else {
      ensure_prev(g);
      g.prev->copy_runtime_state_from(*g.shadow);
      g.shadow->sample(t, bus);
      if (g.scratch->events().size() != before) {
        g.dirty = true;
        for (std::uint32_t m : g.members) ctrl_[m]->proxy_ = g.prev.get();
      }
    }
  }

  // Phase 2c: sample pass in attach order.  Dirty-group members re-run
  // the bit for real (events, handlers, journals) from the pre-sample
  // state and — unless a handler mutated them — go back to sharing the
  // advanced shadow.  Clean-group members are already done.
  for (std::size_t i = 0; i < n; ++i) {
    const int gi = group_of_[i];
    if (gi >= 0) {
      Group& g = *groups_[gi];
      if (!g.active || !g.dirty) continue;
      CanController* c = ctrl_[i];
      if (c->proxy_ != nullptr) {
        c->proxy_ = nullptr;
        c->copy_runtime_state_from(*g.prev);
      }
      c->sample(t, rec.view[i]);
      if (!c->fast_touched_) {
        if (paranoid()) {
          key_a_.clear();
          key_b_.clear();
          c->append_state(key_a_);
          g.shadow->append_state(key_b_);
          if (key_a_ != key_b_ || c->frame_index_ != g.shadow->frame_index_) {
            throw std::logic_error(
                "fast kernel: member diverged from group shadow");
          }
        }
        c->proxy_ = g.shadow.get();
      }
      continue;
    }
    if (!rec.active[i]) continue;
    sim_.nodes_[i].node->sample(t, rec.view[i]);
  }
  for (auto& gp : groups_) {
    if (gp && gp->live && gp->dirty) gp->scratch->clear();
  }

  // Phase 3: trace.
  if (records) {
    rec.bus = bus;
    for (TraceObserver* obs : sim_.observers_) obs->on_bit(rec);
  }

  ++sim_.now_;
}

void FastKernel::step_bit_quiet() {
  const BitTime t = sim_.now_;

  // Phase 1: drive.  Shadows once per group, then the cached ungrouped
  // list; participation is latched exactly as in the full path.
  Level bus = Level::Recessive;
  for (auto& gp : groups_) {
    if (!gp || !gp->live) continue;
    Group& g = *gp;
    g.dirty = false;
    g.active = g.shadow->active();
    if (g.active) bus = bus & g.shadow->drive(t);
  }
  live_singles_.clear();
  for (std::uint32_t i : singles_) {
    const Simulator::Slot& s = sim_.nodes_[i];
    if (s.crashed || !s.node->active()) continue;
    live_singles_.push_back(i);
    bus = bus & s.node->drive(t);
  }

  // Phase 2b: group trials — identical logic to the full path.
  bool any_dirty = false;
  for (auto& gp : groups_) {
    if (!gp || !gp->live || !gp->active) continue;
    Group& g = *gp;
    const std::size_t before = g.scratch->events().size();
    if (g.shadow->sample_is_quiet(bus)) {
      g.shadow->sample(t, bus);
      if (g.scratch->events().size() != before) {
        throw std::logic_error("fast kernel: quiet-sample misprediction");
      }
    } else {
      ensure_prev(g);
      g.prev->copy_runtime_state_from(*g.shadow);
      g.shadow->sample(t, bus);
      if (g.scratch->events().size() != before) {
        g.dirty = true;
        any_dirty = true;
        for (std::uint32_t m : g.members) ctrl_[m]->proxy_ = g.prev.get();
      }
    }
  }

  // Phase 2c: sample pass.  With no dirty group only the live singles
  // sample; otherwise fall back to the attach-order interleave so member
  // re-runs and singleton events serialize exactly as the reference.
  if (!any_dirty) {
    for (std::uint32_t i : live_singles_) sim_.nodes_[i].node->sample(t, bus);
  } else {
    std::size_t ls = 0;
    const std::size_t n = sim_.nodes_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const int gi = group_of_[i];
      if (gi >= 0) {
        Group& g = *groups_[gi];
        if (!g.active || !g.dirty) continue;
        CanController* c = ctrl_[i];
        if (c->proxy_ != nullptr) {
          c->proxy_ = nullptr;
          c->copy_runtime_state_from(*g.prev);
        }
        c->sample(t, bus);
        if (!c->fast_touched_) {
          if (paranoid()) {
            key_a_.clear();
            key_b_.clear();
            c->append_state(key_a_);
            g.shadow->append_state(key_b_);
            if (key_a_ != key_b_ ||
                c->frame_index_ != g.shadow->frame_index_) {
              throw std::logic_error(
                  "fast kernel: member diverged from group shadow");
            }
          }
          c->proxy_ = g.shadow.get();
        }
        continue;
      }
      if (ls < live_singles_.size() && live_singles_[ls] == i) {
        ++ls;
        sim_.nodes_[i].node->sample(t, bus);
      }
    }
    for (auto& gp : groups_) {
      if (gp && gp->live && gp->dirty) gp->scratch->clear();
    }
  }

  ++sim_.now_;
}

void FastKernel::flush() {
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    if (!groups_[gi] || !groups_[gi]->live) continue;
    for (std::uint32_t m : groups_[gi]->members) {
      materialize(*ctrl_[m]);
      group_of_[m] = -1;
    }
    groups_[gi].reset();
  }
  touched_.clear();
  singles_dirty_ = true;
  next_rebuild_ = sim_.now_;
}

std::unique_ptr<KernelBackend> make_fast_kernel(Simulator& sim) {
  return std::make_unique<FastKernel>(sim);
}

}  // namespace mcan
