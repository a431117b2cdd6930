#include "rsm/runner.hpp"

#include <set>
#include <stdexcept>

#include "analysis/tagged.hpp"
#include "attack/injector.hpp"
#include "fault/scripted.hpp"

namespace mcan {

bool rsm_within_envelope(const ScenarioSpec& spec) {
  if (spec.crash) return false;  // controller fail-silence is a fault
  if (!spec.attacks.empty()) return false;  // adversaries are not faults
  if (spec.protocol.variant != Variant::MajorCan) return spec.flips.empty();
  int total_flips = 0;
  for (const FaultTarget& f : spec.flips) {
    const bool endgame =
        (f.seg == Seg::Eof && f.index.has_value()) || f.eof_rel.has_value();
    if (!endgame) return false;
    total_flips += f.count;
  }
  return total_flips <= spec.protocol.m;
}

RsmRunResult run_rsm_scenario(const ScenarioSpec& spec,
                              const InvariantConfig& inv) {
  if (spec.n_nodes > 8) {
    throw std::invalid_argument(
        "rsm scenarios support at most 8 nodes (bitmap membership); got " +
        std::to_string(spec.n_nodes));
  }
  const RsmWorkload w =
      sanitize_rsm_workload(spec.rsm.value_or(RsmWorkload{}), spec.n_nodes);

  RsmClusterConfig cc;
  cc.n_nodes = spec.n_nodes;
  cc.k = w.k;
  cc.link = static_cast<RsmLink>(w.link);
  cc.protocol = spec.protocol;
  cc.can_id_base = spec.frame_id;
  RsmCluster cluster(cc);
  Network& net = cluster.link();

  ScriptedFaults inj(spec.flips);
  AttackEngine attacker(spec.attacks);
  CompositeInjector faults;
  faults.add(inj);
  faults.add(attacker);
  net.set_injector(faults);
  if (spec.crash) {
    net.sim().schedule_crash(spec.crash->first, spec.crash->second);
  }
  InvariantScope invariants(net, inv);

  // Spoofed frames ride the consensus bus as raw tagged CAN frames: the
  // replicas' RSM codec ignores them, but the link-level AB check sees the
  // deliveries — a spoof that lands is a message no replica broadcast.
  std::set<MessageKey> spoofed;
  for (const AttackSpec& a : spec.attacks) {
    if (a.kind != AttackKind::Spoof) continue;
    const auto src = static_cast<int>(
        a.attacker % static_cast<std::uint32_t>(spec.n_nodes));
    for (const MessageKey& key : spoof_keys(a)) {
      net.node(src).enqueue(make_tagged_frame(a.id, MsgKind::Data, key,
                                              std::max<std::uint8_t>(4, a.dlc)));
      attacker.note_spoofed(1);
      spoofed.insert(key);
    }
  }

  // Deterministic workload schedule: command j goes to node j mod n at
  // 1 + j*spacing; payload[0] picks the register, the rest is a delta
  // pattern unique to j so every command changes the state digest.
  struct Proposal {
    BitTime t;
    int node;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Proposal> proposals;
  for (int j = 0; j < w.commands; ++j) {
    Proposal p;
    p.t = 1 + static_cast<BitTime>(j) * w.spacing;
    p.node = j % spec.n_nodes;
    p.payload.push_back(static_cast<std::uint8_t>(j % kRsmRegisters));
    for (int b = 1; b < w.payload; ++b) {
      p.payload.push_back(static_cast<std::uint8_t>(j * 31 + b));
    }
    proposals.push_back(std::move(p));
  }
  const bool crash_scheduled = w.crash_node >= 0;
  const bool recover_scheduled = crash_scheduled && w.recover_t > 0;

  constexpr BitTime kBudget = 200000;
  std::size_t next_proposal = 0;
  bool crash_done = false;
  bool recover_done = false;
  bool quiesced = false;
  for (BitTime i = 0; i < kBudget; ++i) {
    const BitTime now = cluster.now();
    while (next_proposal < proposals.size() &&
           proposals[next_proposal].t <= now) {
      const Proposal& p = proposals[next_proposal];
      cluster.propose(p.node, p.payload);  // refused while down: skipped
      ++next_proposal;
    }
    if (crash_scheduled && !crash_done && now >= w.crash_t) {
      cluster.crash_host(w.crash_node);
      crash_done = true;
    }
    if (recover_scheduled && !recover_done && now >= w.recover_t) {
      cluster.recover_host(w.crash_node);
      recover_done = true;
    }
    cluster.step();
    const bool events_done = next_proposal == proposals.size() &&
                             (!crash_scheduled || crash_done) &&
                             (!recover_scheduled || recover_done);
    if (events_done && cluster.quiet()) {
      quiesced = true;
      break;
    }
  }
  // Same cooldown rationale as run_scenario: let the reconvergence rule
  // observe an all-idle bit after the quiet predicate stopped the loop.
  for (int i = 0; i < 2 * spec.protocol.eof_bits(); ++i) net.sim().step();

  RsmRunResult res;
  res.within_envelope = rsm_within_envelope(spec);
  res.base.quiesced = quiesced;
  res.base.invariants = invariants.report();
  invariants.set_handler(nullptr);
  res.base.ab = cluster.check_link();

  RsmCheckContext ctx;
  if (spec.crash) ctx.controller_crashed.insert(spec.crash->first);
  ctx.check_liveness = quiesced && res.within_envelope;
  ctx.expect_install = quiesced && recover_scheduled;
  res.rsm = check_rsm(cluster.rsm_journals(), ctx);

  res.base.outcome.name = spec.name.empty() ? "rsm scenario" : spec.name;
  res.base.outcome.protocol = spec.protocol;
  res.base.outcome.n_nodes = spec.n_nodes;
  res.base.outcome.tx_node = 0;
  res.base.outcome.deliveries.assign(static_cast<std::size_t>(spec.n_nodes),
                                     0);
  for (int i = 0; i < spec.n_nodes; ++i) {
    res.base.outcome.deliveries[static_cast<std::size_t>(i)] =
        static_cast<int>(net.deliveries(i).size());
  }
  res.base.outcome.tx_crashed = spec.crash.has_value();
  res.base.outcome.faults_all_fired = inj.all_fired();
  res.base.outcome.notes.push_back("rsm: " + res.rsm.summary());

  for (int i = 0; i < spec.n_nodes; ++i) {
    for (const Delivery& d : net.deliveries(i)) {
      if (auto tag = parse_tag(d.frame); tag && spoofed.contains(tag->key)) {
        attacker.note_spoof_delivered();
      }
    }
  }
  for (NodeId v : attacker.busoff_victims()) {
    if (static_cast<int>(v) >= spec.n_nodes) continue;
    const CanController& victim = net.node(static_cast<int>(v));
    attacker.finalize_victim(v, victim.fc_state() == FcState::BusOff,
                             victim.tec());
  }
  res.base.attack = attacker.report();

  switch (spec.expect) {
    case Expectation::Any:
      res.base.expectation_met = true;
      res.base.expectation_text = "(no expectation)";
      break;
    case Expectation::Consistent:
      res.base.expectation_met = res.rsm.clean();
      res.base.expectation_text = "expected consensus safety: " +
                                  res.rsm.summary();
      break;
    case Expectation::Imo:
    case Expectation::Double:
      res.base.expectation_met = !res.rsm.clean();
      res.base.expectation_text =
          "expected an application-level consistency violation: " +
          res.rsm.summary();
      break;
  }
  return res;
}

DslRunResult run_any_scenario(const ScenarioSpec& spec,
                              const InvariantConfig& inv, bool trace) {
  if (spec.rsm) return run_rsm_scenario(spec, inv).base;
  return run_scenario(spec, inv, trace);
}

}  // namespace mcan
