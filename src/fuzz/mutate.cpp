#include "fuzz/mutate.hpp"

#include <algorithm>
#include <set>

#include "analysis/tagged.hpp"
#include "frame/encoder.hpp"
#include "scenario/exhaustive.hpp"

namespace mcan {

int fuzz_window_hi(const ProtocolParams& p) {
  ExhaustiveConfig cfg;
  cfg.protocol = p;
  return cfg.window_hi();
}

FuzzBounds FuzzBounds::envelope(const ProtocolParams& p) const {
  FuzzBounds b = *this;
  b.max_flips = p.variant == Variant::MajorCan ? p.m : 2;
  b.allow_body = false;
  b.allow_crash = false;
  b.mutate_protocol = false;
  return b;
}

int fuzz_body_bits(const ScenarioSpec& spec) {
  const Frame probe =
      make_tagged_frame(spec.frame_id, MsgKind::Data, MessageKey{0, 1},
                        std::max<std::uint8_t>(4, spec.frame_dlc));
  return wire_length(probe, spec.protocol.eof_bits()) -
         spec.protocol.eof_bits();
}

ScenarioSpec seed_scenario(const ProtocolParams& p, int n_nodes) {
  ScenarioSpec spec;
  spec.name = "fuzz-seed";
  spec.protocol = p;
  spec.n_nodes = n_nodes;
  spec.frame_id = 0x100;
  spec.frame_dlc = 4;
  spec.expect = Expectation::Any;
  return spec;
}

namespace {

int clampi(int v, int lo, int hi) { return std::max(lo, std::min(hi, v)); }

/// Clamp one flip into a canonical, writer-representable form.
void sanitize_flip(FaultTarget& f, const ScenarioSpec& spec,
                   const FuzzBounds& b) {
  f.node = f.node % static_cast<NodeId>(spec.n_nodes);
  f.count = 1;  // the .scn writer has no count syntax; keep genomes exact
  const int hi = fuzz_window_hi(spec.protocol);
  bool timed = false;
  if (f.seg == Seg::Eof && f.index) {
    f.eof_rel.reset();
    f.at.reset();
    f.index = clampi(*f.index, 0, spec.protocol.eof_bits() - 1);
  } else if (f.eof_rel) {
    f.seg.reset();
    f.index.reset();
    f.at.reset();
    f.eof_rel = clampi(*f.eof_rel, b.win_lo, hi);
  } else if (f.seg == Seg::Body && f.index) {
    f.at.reset();
    if (b.allow_body) {
      f.index = clampi(*f.index, 0, fuzz_body_bits(spec) - 1);
      f.frame_index = 0;  // body bits address the probe frame only
    } else {  // rewrite into the EOF-relative window
      f.seg.reset();
      f.index.reset();
      f.eof_rel = hi;
    }
  } else if (f.at) {
    f.seg.reset();
    f.index.reset();
    f.at = std::max<BitTime>(1, std::min<BitTime>(*f.at, 5000));
    timed = true;
  } else {
    f = FaultTarget::eof_relative(f.node, hi);
  }
  if (timed) {
    f.frame_index.reset();  // the t= form carries no frame index
  } else {
    // Canonical form matches the parser: frame_index engaged, 0 = probe.
    f.frame_index = clampi(f.frame_index.value_or(0), 0,
                           static_cast<int>(spec.traffic.size()));
  }
}

}  // namespace

void sanitize_scenario(ScenarioSpec& spec, const FuzzBounds& b) {
  spec.expect = Expectation::Any;  // the oracle judges, not the DSL clause
  if (spec.name.empty()) spec.name = "fuzz";

  // Canonicalize through the factories: the .scn writer only records
  // (variant, m), so any drifted ablation knob or a stale m on a
  // non-MajorCAN variant would not survive a parse -> write -> parse
  // round trip.
  switch (spec.protocol.variant) {
    case Variant::StandardCan:
      spec.protocol = ProtocolParams::standard_can();
      break;
    case Variant::MinorCan:
      spec.protocol = ProtocolParams::minor_can();
      break;
    case Variant::MajorCan:
      spec.protocol = ProtocolParams::major_can(
          clampi(spec.protocol.m, 3, std::min(b.max_m, kMaxTolerance)));
      break;
  }

  spec.n_nodes = clampi(spec.n_nodes, b.min_nodes, b.max_nodes);
  if (spec.rsm) {
    // The consensus runner's membership bitmap caps the bus at 8; the
    // workload itself re-fits through the same sanitizer every other
    // consumer (runner, serve backend) uses, so no mutated genome can
    // carry an unrunnable workload.
    spec.n_nodes = std::min(spec.n_nodes, 8);
    spec.rsm = sanitize_rsm_workload(*spec.rsm, spec.n_nodes);
  }
  spec.frame_id &= kMaxId;
  spec.frame_dlc = static_cast<std::uint8_t>(
      clampi(spec.frame_dlc, 0, kMaxDataBytes));

  if (!b.allow_traffic) spec.traffic.clear();
  if (static_cast<int>(spec.traffic.size()) > b.max_traffic) {
    spec.traffic.resize(static_cast<std::size_t>(b.max_traffic));
  }
  // Distinct CAN ids: two nodes starting the same id simultaneously is
  // outside the protocol's model (arbitration cannot separate them).
  std::set<std::uint32_t> ids{spec.frame_id};
  for (TrafficFrame& t : spec.traffic) {
    t.sender = t.sender % static_cast<NodeId>(spec.n_nodes);
    t.dlc = static_cast<std::uint8_t>(clampi(t.dlc, 0, kMaxDataBytes));
    t.id &= kMaxId;
    while (!ids.insert(t.id).second) t.id = (t.id + 1) & kMaxId;
  }

  if (static_cast<int>(spec.flips.size()) > b.max_flips) {
    spec.flips.resize(static_cast<std::size_t>(b.max_flips));
  }
  for (FaultTarget& f : spec.flips) sanitize_flip(f, spec, b);

  if (spec.crash) {
    if (!b.allow_crash) {
      spec.crash.reset();
    } else {
      spec.crash->first =
          spec.crash->first % static_cast<NodeId>(spec.n_nodes);
      spec.crash->second =
          std::max<BitTime>(1, std::min<BitTime>(spec.crash->second, 5000));
    }
  }

  if (b.max_attacks <= 0) {
    spec.attacks.clear();
  } else {
    if (static_cast<int>(spec.attacks.size()) > b.max_attacks) {
      spec.attacks.resize(static_cast<std::size_t>(b.max_attacks));
    }
    const int hi = fuzz_window_hi(spec.protocol);
    std::vector<AttackSpec> kept;
    int glitch_total = 0;
    for (AttackSpec a : spec.attacks) {
      if (!b.allow_spoof && a.kind == AttackKind::Spoof) {
        a.kind = AttackKind::Glitch;
      }
      if (!b.allow_busoff && a.kind == AttackKind::BusOff) {
        a.kind = AttackKind::Glitch;
      }
      sanitize_attack(a, spec.n_nodes, b.win_lo, hi);
      if (a.kind == AttackKind::Glitch) {
        // Total glitch strength is capped: that cap is what the CI gates
        // reason about ("clean below budget k"), so no genome may exceed it.
        const int left = b.attack_budget - glitch_total;
        if (left <= 0) continue;
        a.budget = std::min(a.budget, left);
        glitch_total += a.budget;
      }
      kept.push_back(a);
    }
    spec.attacks = std::move(kept);
  }
}

bool scenario_in_bounds(const ScenarioSpec& spec, const FuzzBounds& b) {
  ScenarioSpec copy = spec;
  sanitize_scenario(copy, b);
  copy.expect = spec.expect;
  copy.name = spec.name;
  return copy == spec;
}

namespace {

NodeId pick_node(const ScenarioSpec& spec, Rng& rng) {
  return static_cast<NodeId>(
      rng.next_below(static_cast<std::uint32_t>(spec.n_nodes)));
}

FaultTarget random_flip(const ScenarioSpec& spec, const FuzzBounds& b,
                        Rng& rng) {
  const NodeId node = pick_node(spec, rng);
  const int hi = fuzz_window_hi(spec.protocol);
  const std::uint32_t form = rng.next_below(b.allow_body ? 4 : 3);
  switch (form) {
    case 0: {  // EOF bit of the probe (the figures' vocabulary)
      const int pos = static_cast<int>(rng.next_below(
          static_cast<std::uint32_t>(spec.protocol.eof_bits())));
      return FaultTarget::eof_bit(node, pos);
    }
    case 1:
    case 2: {  // EOF-relative end-game position — the interesting region,
               // so give it double weight
      const int span = hi - b.win_lo + 1;
      const int pos =
          b.win_lo +
          static_cast<int>(rng.next_below(static_cast<std::uint32_t>(span)));
      const int frame = (spec.traffic.empty() || !rng.chance(0.25))
                            ? 0
                            : 1 + static_cast<int>(rng.next_below(
                                      static_cast<std::uint32_t>(
                                          spec.traffic.size())));
      return FaultTarget::eof_relative(node, pos, frame);
    }
    default: {  // body wire bit (stuffing / CRC space)
      const int bits = fuzz_body_bits(spec);
      FaultTarget t;
      t.node = node;
      t.seg = Seg::Body;
      t.index =
          static_cast<int>(rng.next_below(static_cast<std::uint32_t>(bits)));
      return t;
    }
  }
}

AttackSpec random_attack(const ScenarioSpec& spec, const FuzzBounds& b,
                         Rng& rng) {
  AttackSpec a;
  std::vector<AttackKind> kinds{AttackKind::Glitch};
  if (b.allow_busoff) kinds.push_back(AttackKind::BusOff);
  if (b.allow_spoof) kinds.push_back(AttackKind::Spoof);
  a.kind = kinds[rng.next_below(static_cast<std::uint32_t>(kinds.size()))];
  switch (a.kind) {
    case AttackKind::Glitch: {
      a.victim = pick_node(spec, rng);
      const int hi = fuzz_window_hi(spec.protocol);
      a.pos = b.win_lo + static_cast<int>(rng.next_below(
                             static_cast<std::uint32_t>(hi - b.win_lo + 1)));
      a.span = 1 + static_cast<int>(rng.next_below(3));
      a.budget = 1 + static_cast<int>(rng.next_below(static_cast<std::uint32_t>(
                         std::max(1, b.attack_budget))));
      a.frame = rng.chance(0.25) ? -1 : 0;
      a.when = static_cast<GlitchWhen>(rng.next_below(3));
      break;
    }
    case AttackKind::BusOff:
      a.victim = pick_node(spec, rng);
      a.budget = 8 + static_cast<int>(rng.next_below(57));  // 8..64 attempts
      a.start = rng.next_below(400);
      break;
    case AttackKind::Spoof:
      a.attacker = pick_node(spec, rng);
      a.as = pick_node(spec, rng);
      a.seq = 512 + static_cast<int>(rng.next_below(4096));
      a.id = rng.next_below(kMaxId + 1);
      a.count = 1 + static_cast<int>(rng.next_below(4));
      break;
  }
  return a;
}

}  // namespace

ScenarioSpec mutate_scenario(const ScenarioSpec& parent, const FuzzBounds& b,
                             Rng& rng) {
  ScenarioSpec child = parent;
  const int rounds = 1 + static_cast<int>(rng.next_below(3));
  // The case count depends on whether attacks are enabled so that legacy
  // campaigns (max_attacks == 0, the default) replay byte-identically: the
  // rng draw sequence must not change under a knob that is switched off.
  const std::uint32_t n_cases = b.max_attacks > 0 ? 14 : 12;
  for (int round = 0; round < rounds; ++round) {
    switch (rng.next_below(n_cases)) {
      case 0:  // add a flip
        if (static_cast<int>(child.flips.size()) < b.max_flips) {
          child.flips.push_back(random_flip(child, b, rng));
        }
        break;
      case 1:  // drop a flip
        if (!child.flips.empty()) {
          const auto i = rng.next_below(
              static_cast<std::uint32_t>(child.flips.size()));
          child.flips.erase(child.flips.begin() + i);
        }
        break;
      case 2:  // nudge a flip's position
        if (!child.flips.empty()) {
          FaultTarget& f = child.flips[rng.next_below(
              static_cast<std::uint32_t>(child.flips.size()))];
          const int delta = 1 + static_cast<int>(rng.next_below(3));
          const int sign = rng.chance(0.5) ? 1 : -1;
          if (f.eof_rel) {
            *f.eof_rel += sign * delta;
          } else if (f.index) {
            *f.index += sign * delta;
          } else if (f.at) {
            f.at = static_cast<BitTime>(
                std::max<long long>(1, static_cast<long long>(*f.at) +
                                           sign * delta));
          }
        }
        break;
      case 3:  // retarget a flip to another node
        if (!child.flips.empty()) {
          child.flips[rng.next_below(
                          static_cast<std::uint32_t>(child.flips.size()))]
              .node = pick_node(child, rng);
        }
        break;
      case 4:  // mirror a flip onto a second node at the same position —
               // the paper's IMO scenarios are exactly this shape
        if (!child.flips.empty() &&
            static_cast<int>(child.flips.size()) < b.max_flips) {
          FaultTarget copy = child.flips[rng.next_below(
              static_cast<std::uint32_t>(child.flips.size()))];
          copy.node = pick_node(child, rng);
          child.flips.push_back(copy);
        }
        break;
      case 5:  // probe frame identity
        if (rng.chance(0.5)) {
          child.frame_id = rng.next_below(kMaxId + 1);
        } else {
          child.frame_dlc = static_cast<std::uint8_t>(
              rng.next_below(kMaxDataBytes + 1));
        }
        break;
      case 6:  // add a traffic frame
        if (b.allow_traffic &&
            static_cast<int>(child.traffic.size()) < b.max_traffic) {
          child.traffic.push_back(
              {.id = rng.next_below(kMaxId + 1),
               .dlc = static_cast<std::uint8_t>(
                   rng.next_below(kMaxDataBytes + 1)),
               .sender = pick_node(child, rng)});
        }
        break;
      case 7:  // drop or retarget a traffic frame
        if (!child.traffic.empty()) {
          const auto i = rng.next_below(
              static_cast<std::uint32_t>(child.traffic.size()));
          if (rng.chance(0.5)) {
            child.traffic.erase(child.traffic.begin() + i);
          } else {
            child.traffic[i].sender = pick_node(child, rng);
          }
        }
        break;
      case 8:  // grow / shrink the bus
        if (b.mutate_nodes) {
          child.n_nodes += rng.chance(0.5) ? 1 : -1;
        }
        break;
      case 9:  // schedule, move or cancel a crash
        if (b.allow_crash) {
          if (!child.crash) {
            child.crash = {pick_node(child, rng),
                           static_cast<BitTime>(1 + rng.next_below(400))};
          } else if (rng.chance(0.3)) {
            child.crash.reset();
          } else {
            child.crash->second =
                static_cast<BitTime>(1 + rng.next_below(400));
          }
        }
        break;
      case 10:  // protocol drift
        if (b.mutate_protocol) {
          switch (rng.next_below(3)) {
            case 0: child.protocol.variant = Variant::StandardCan; break;
            case 1: child.protocol.variant = Variant::MinorCan; break;
            default:
              child.protocol.variant = Variant::MajorCan;
              child.protocol.m = 3 + static_cast<int>(rng.next_below(
                                         static_cast<std::uint32_t>(
                                             b.max_m - 3 + 1)));
              break;
          }
        }
        break;
      case 12:  // add or drop an attacker
        if (child.attacks.empty() ||
            (static_cast<int>(child.attacks.size()) < b.max_attacks &&
             rng.chance(0.7))) {
          child.attacks.push_back(random_attack(child, b, rng));
        } else {
          const auto i = rng.next_below(
              static_cast<std::uint32_t>(child.attacks.size()));
          child.attacks.erase(child.attacks.begin() + i);
        }
        break;
      case 13:  // perturb an attacker in place
        if (!child.attacks.empty()) {
          AttackSpec& a = child.attacks[rng.next_below(
              static_cast<std::uint32_t>(child.attacks.size()))];
          switch (a.kind) {
            case AttackKind::Glitch:
              switch (rng.next_below(4)) {
                case 0:
                  a.pos += rng.chance(0.5) ? 1 : -1;
                  break;
                case 1:
                  a.span += rng.chance(0.5) ? 1 : -1;
                  break;
                case 2:
                  a.budget += rng.chance(0.5) ? 1 : -1;
                  break;
                default:
                  a.victim = pick_node(child, rng);
                  break;
              }
              break;
            case AttackKind::BusOff:
              if (rng.chance(0.5)) {
                a.victim = pick_node(child, rng);
              } else {
                a.start = rng.next_below(400);
              }
              break;
            case AttackKind::Spoof:
              if (rng.chance(0.5)) {
                a.as = pick_node(child, rng);
              } else {
                a.count = 1 + static_cast<int>(rng.next_below(4));
              }
              break;
          }
        } else if (b.max_attacks > 0) {
          child.attacks.push_back(random_attack(child, b, rng));
        }
        break;
      default:  // re-roll a flip wholesale
        if (!child.flips.empty()) {
          child.flips[rng.next_below(static_cast<std::uint32_t>(
              child.flips.size()))] = random_flip(child, b, rng);
        } else if (static_cast<int>(child.flips.size()) < b.max_flips) {
          child.flips.push_back(random_flip(child, b, rng));
        }
        break;
    }
  }
  sanitize_scenario(child, b);
  return child;
}

}  // namespace mcan
