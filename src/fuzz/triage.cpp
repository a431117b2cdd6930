#include "fuzz/triage.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <tuple>

#include "rsm/runner.hpp"
#include "util/text.hpp"

namespace mcan {

namespace {

bool reproduces(const ScenarioSpec& spec, FuzzClass cls) {
  return (run_fuzz_case(spec).classes & fuzz_class_bit(cls)) != 0;
}

/// Canonical flip order: by node, then addressing form, then position.
std::tuple<NodeId, int, long long, int> flip_rank(const FaultTarget& f) {
  if (f.seg == Seg::Eof && f.index) {
    return {f.node, 0, *f.index, f.frame_index.value_or(0)};
  }
  if (f.eof_rel) return {f.node, 1, *f.eof_rel, f.frame_index.value_or(0)};
  if (f.seg == Seg::Body && f.index) {
    return {f.node, 2, *f.index, f.frame_index.value_or(0)};
  }
  return {f.node, 3, static_cast<long long>(f.at.value_or(0)), 0};
}

bool references_node(const ScenarioSpec& spec, NodeId node) {
  for (const FaultTarget& f : spec.flips) {
    if (f.node == node) return true;
  }
  for (const TrafficFrame& t : spec.traffic) {
    if (t.sender == node) return true;
  }
  for (const AttackSpec& a : spec.attacks) {
    if (a.victim == node || a.attacker == node || a.as == node) return true;
  }
  if (spec.rsm && spec.rsm->crash_node == static_cast<int>(node)) return true;
  return spec.crash && spec.crash->first == node;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::string finding_key(const ScenarioSpec& spec, FuzzClass cls) {
  ScenarioSpec canon = spec;
  canon.name.clear();            // presentation, not identity
  canon.expect = Expectation::Any;
  return std::string(fuzz_class_name(cls)) + "\n" + write_scenario(canon);
}

ScenarioSpec minimize_finding(const ScenarioSpec& spec, FuzzClass cls) {
  ScenarioSpec best = spec;
  bool improved = true;
  while (improved) {
    improved = false;

    // Drop each flip in turn (greedy ddmin granule of one).
    for (std::size_t i = 0; i < best.flips.size(); ++i) {
      ScenarioSpec c = best;
      c.flips.erase(c.flips.begin() + static_cast<std::ptrdiff_t>(i));
      if (reproduces(c, cls)) {
        best = std::move(c);
        improved = true;
        break;
      }
    }
    if (improved) continue;

    // Drop each traffic frame.
    for (std::size_t i = 0; i < best.traffic.size(); ++i) {
      ScenarioSpec c = best;
      c.traffic.erase(c.traffic.begin() + static_cast<std::ptrdiff_t>(i));
      if (reproduces(c, cls)) {
        best = std::move(c);
        improved = true;
        break;
      }
    }
    if (improved) continue;

    // Drop each attacker; then shrink the survivors' strength (budget,
    // span, spoof volume) one notch at a time — the reproducer should
    // witness the *minimum* attack that still breaks the property.
    for (std::size_t i = 0; i < best.attacks.size(); ++i) {
      ScenarioSpec c = best;
      c.attacks.erase(c.attacks.begin() + static_cast<std::ptrdiff_t>(i));
      if (reproduces(c, cls)) {
        best = std::move(c);
        improved = true;
        break;
      }
    }
    if (improved) continue;
    for (std::size_t i = 0; i < best.attacks.size() && !improved; ++i) {
      const AttackSpec& a = best.attacks[i];
      ScenarioSpec c = best;
      if (a.kind == AttackKind::Glitch && a.budget > 1) {
        c.attacks[i].budget -= 1;
      } else if (a.kind == AttackKind::Glitch && a.span > 1) {
        c.attacks[i].span -= 1;
      } else if (a.kind == AttackKind::BusOff && a.budget > 33) {
        // 32 corrupted attempts reach TEC 256; below that the victim stays
        // on the bus, so probe just above the threshold first.
        c.attacks[i].budget = 33;
      } else if (a.kind == AttackKind::Spoof && a.count > 1) {
        c.attacks[i].count -= 1;
      } else {
        continue;
      }
      if (reproduces(c, cls)) {
        best = std::move(c);
        improved = true;
      }
    }
    if (improved) continue;

    // Drop the crash.
    if (best.crash) {
      ScenarioSpec c = best;
      c.crash.reset();
      if (reproduces(c, cls)) {
        best = std::move(c);
        improved = true;
        continue;
      }
    }

    // Shrink the consensus workload: fewer commands, smaller payloads,
    // then no host crash/recovery at all.
    if (best.rsm) {
      ScenarioSpec c = best;
      if (c.rsm->commands > 1) {
        c.rsm->commands -= 1;
        if (reproduces(c, cls)) {
          best = std::move(c);
          improved = true;
          continue;
        }
        c = best;
      }
      if (c.rsm->payload > 1) {
        c.rsm->payload -= 1;
        if (reproduces(c, cls)) {
          best = std::move(c);
          improved = true;
          continue;
        }
        c = best;
      }
      if (c.rsm->crash_node >= 0) {
        c.rsm->crash_node = -1;
        c.rsm->crash_t = 0;
        c.rsm->recover_t = 0;
        if (reproduces(c, cls)) {
          best = std::move(c);
          improved = true;
          continue;
        }
      }
    }

    // Shrink the bus while no directive names the removed node.
    if (best.n_nodes > 2 &&
        !references_node(best, static_cast<NodeId>(best.n_nodes - 1))) {
      ScenarioSpec c = best;
      c.n_nodes -= 1;
      if (reproduces(c, cls)) {
        best = std::move(c);
        improved = true;
        continue;
      }
    }

    // Normalize the probe identity towards the committed figures.
    if (best.frame_id != 0x100 || best.frame_dlc != 4) {
      ScenarioSpec c = best;
      c.frame_id = 0x100;
      c.frame_dlc = 4;
      if (reproduces(c, cls)) {
        best = std::move(c);
        improved = true;
        continue;
      }
    }
  }
  // Canonical order; flips are independent match criteria, so reordering
  // cannot change which bits fire.
  std::stable_sort(best.flips.begin(), best.flips.end(),
                   [](const FaultTarget& a, const FaultTarget& b) {
                     return flip_rank(a) < flip_rank(b);
                   });
  return best;
}

std::vector<TriagedFinding> triage_findings(const std::vector<FuzzFinding>& raw,
                                            const std::string& prefix) {
  // Pre-dedupe raw genomes so each distinct one is minimized once.
  std::map<std::string, FuzzFinding> unique;
  std::map<std::string, int> counts;
  for (const FuzzFinding& f : raw) {
    const std::string key = finding_key(f.spec, f.verdict.primary());
    counts[key] += 1;
    auto it = unique.find(key);
    if (it == unique.end()) {
      unique.emplace(key, f);
    } else if (f.exec_index < it->second.exec_index) {
      it->second = f;
    }
  }

  // Minimize, then dedupe again: different raw genomes often reduce to the
  // same reproducer.
  std::map<std::string, TriagedFinding> out;
  for (const auto& [raw_key, f] : unique) {
    const FuzzClass cls = f.verdict.primary();
    TriagedFinding t;
    t.spec = minimize_finding(f.spec, cls);
    t.cls = cls;
    t.exec_index = f.exec_index;
    t.raw_count = counts.at(raw_key);
    const std::string key = finding_key(t.spec, cls);
    auto it = out.find(key);
    if (it == out.end()) {
      out.emplace(key, std::move(t));
    } else {
      it->second.raw_count += t.raw_count;
      it->second.exec_index = std::min(it->second.exec_index, t.exec_index);
    }
  }

  std::vector<TriagedFinding> result;
  for (auto& [key, t] : out) {
    // Name the reproducer, pick the strongest expect clause the DSL can
    // verify, and replay-verify through the writer/parser.
    const std::uint64_t h = fnv1a(key);
    char tail[16];
    std::snprintf(tail, sizeof tail, "%012llx",
                  static_cast<unsigned long long>(h & 0xffffffffffffULL));
    t.spec.name = prefix + fuzz_class_name(t.cls) + "-" + tail;
    t.spec.expect = Expectation::Any;
    const bool rsm_cls = t.cls == FuzzClass::Election ||
                         t.cls == FuzzClass::LogDiverge ||
                         t.cls == FuzzClass::StateDiverge ||
                         t.cls == FuzzClass::RsmStall;
    if (t.cls == FuzzClass::Agreement || (rsm_cls && t.spec.rsm)) {
      // The rsm runner reads `expect imo` as "some consensus property
      // must break" — the strongest clause the DSL can state for a
      // consensus finding.
      ScenarioSpec probe = t.spec;
      probe.expect = Expectation::Imo;
      if (run_any_scenario(probe).expectation_met) {
        t.spec.expect = Expectation::Imo;
      }
    } else if (t.cls == FuzzClass::Duplicate) {
      ScenarioSpec probe = t.spec;
      probe.expect = Expectation::Double;
      if (run_any_scenario(probe).expectation_met) {
        t.spec.expect = Expectation::Double;
      }
    }
    t.verdict = run_fuzz_case(t.spec);
    const ScenarioSpec parsed = parse_scenario(write_scenario(t.spec));
    t.replay_ok = parsed == t.spec &&
                  (run_fuzz_case(parsed).classes & fuzz_class_bit(t.cls)) != 0;
    result.push_back(std::move(t));
  }
  std::sort(result.begin(), result.end(),
            [](const TriagedFinding& a, const TriagedFinding& b) {
              if (a.cls != b.cls) return a.cls < b.cls;
              return a.exec_index < b.exec_index;
            });
  return result;
}

std::string finding_file_name(const TriagedFinding& f) {
  return f.spec.name + ".scn";
}

std::string export_finding(const TriagedFinding& f,
                           const std::string& campaign) {
  ScenarioWriteOptions opts;
  opts.header = {
      "Reproducer exported by mcan-fuzz (" + campaign + ").",
      "class: " + std::string(fuzz_class_name(f.cls)) + " — first seen at "
          "exec " + std::to_string(f.exec_index) + ", " +
          std::to_string(f.raw_count) + " raw finding(s) collapsed here.",
      "Auto-minimized (ddmin) and replay-verified: " +
          std::string(f.replay_ok ? "yes" : "NO — investigate"),
  };
  if (!f.verdict.detail.empty()) {
    opts.header.push_back("oracle: " +
                          f.verdict.detail.substr(0, f.verdict.detail.find('\n')));
  }
  return write_scenario(f.spec, opts);
}

std::vector<std::string> write_findings(
    const std::vector<TriagedFinding>& triaged, const std::string& dir,
    const std::string& campaign) {
  if (!triaged.empty()) {
    // A directory that cannot be made shows up as unwritable files.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  }
  std::vector<std::string> failed;
  for (const TriagedFinding& t : triaged) {
    const std::string path =
        (std::filesystem::path(dir) / finding_file_name(t)).string();
    if (!write_text_file(path, export_finding(t, campaign))) {
      failed.push_back(path);
    }
  }
  return failed;
}

std::vector<TriagedFinding> export_findings(const std::vector<FuzzFinding>& raw,
                                            const std::string& dir,
                                            const std::string& campaign) {
  std::vector<TriagedFinding> triaged = triage_findings(raw);
  (void)write_findings(triaged, dir, campaign);
  return triaged;
}

}  // namespace mcan
