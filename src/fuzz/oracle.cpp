#include "fuzz/oracle.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "rsm/runner.hpp"

namespace mcan {

const char* fuzz_class_name(FuzzClass c) {
  switch (c) {
    case FuzzClass::Election: return "election";
    case FuzzClass::LogDiverge: return "logdiverge";
    case FuzzClass::StateDiverge: return "statediverge";
    case FuzzClass::RsmStall: return "rsmstall";
    case FuzzClass::AttackSpoof: return "attackspoof";
    case FuzzClass::AttackBusOff: return "attackbusoff";
    case FuzzClass::AttackGlitch: return "attackglitch";
    case FuzzClass::Agreement: return "agreement";
    case FuzzClass::Validity: return "validity";
    case FuzzClass::Duplicate: return "duplicate";
    case FuzzClass::Order: return "order";
    case FuzzClass::NonTriviality: return "nontriviality";
    case FuzzClass::Invariant: return "invariant";
    case FuzzClass::Timeout: return "timeout";
  }
  return "?";
}

std::string fuzz_classes_to_string(std::uint32_t mask) {
  if (mask == 0) return "none";
  std::string s;
  for (int i = 0; i < kFuzzClassCount; ++i) {
    if (!(mask & (1u << i))) continue;
    if (!s.empty()) s += '+';
    s += fuzz_class_name(static_cast<FuzzClass>(i));
  }
  return s;
}

bool parse_fuzz_classes(const std::string& csv, std::uint32_t& mask,
                        std::string& error) {
  mask = 0;
  std::stringstream in(csv);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (tok.empty()) continue;
    if (tok == "none") continue;
    if (tok == "imo") tok = "agreement";    // the paper's name for AB2
    if (tok == "double") tok = "duplicate"; // the DSL's name for AB3
    bool found = false;
    for (int i = 0; i < kFuzzClassCount; ++i) {
      if (tok == fuzz_class_name(static_cast<FuzzClass>(i))) {
        mask |= 1u << i;
        found = true;
        break;
      }
    }
    if (!found) {
      error = "unknown violation class '" + tok +
              "' (want none|election|logdiverge|statediverge|rsmstall|"
              "attackspoof|attackbusoff|attackglitch|agreement|validity|"
              "duplicate|order|nontriviality|invariant|timeout)";
      return false;
    }
  }
  return true;
}

int check_class_gate(const char* tool, std::uint32_t want,
                     std::uint32_t found) {
  if (want == 0 && found != 0) {
    std::fprintf(stderr, "%s: FAIL: expected a clean campaign but found %s\n",
                 tool, fuzz_classes_to_string(found).c_str());
    return 1;
  }
  if ((want & found) != want) {
    std::fprintf(stderr, "%s: FAIL: expected classes %s but found %s\n", tool,
                 fuzz_classes_to_string(want).c_str(),
                 fuzz_classes_to_string(found).c_str());
    return 1;
  }
  return 0;
}

BoundOption expect_classes_option(std::optional<std::uint32_t>& want) {
  using Want = std::optional<std::uint32_t>;
  static const OptionTable<Want> table = [] {
    OptionTable<Want> t;
    t.token({"--expect-classes", "", "", "L",
             "comma list of violation classes that must all\n"
             "be found (none = require a clean campaign);\n"
             "exit 1 otherwise"},
            [](auto& w) -> auto& { return w; },
            [](const std::string& csv) {
              std::uint32_t mask = 0;
              std::string error;
              if (!parse_fuzz_classes(csv, mask, error)) {
                throw std::invalid_argument(error);
              }
              return Want(mask);
            },
            [](const Want& w) {
              return w ? fuzz_classes_to_string(*w) : std::string();
            });
    return t;
  }();
  return table.bind(want).front();
}

FuzzClass FuzzVerdict::primary() const {
  for (int i = 0; i < kFuzzClassCount; ++i) {
    if (classes & (1u << i)) return static_cast<FuzzClass>(i);
  }
  return FuzzClass::Timeout;
}

FuzzVerdict run_fuzz_case(const ScenarioSpec& spec) {
  FuzzVerdict v;
  DslRunResult run;
  RsmReport rsm;
  const bool has_rsm = spec.rsm.has_value();
  {
    // Capture this thread's FSM transitions for the scope of the run.
    ScopedSignatureSink sink(v.sig);
    if (has_rsm) {
      RsmRunResult rr = run_rsm_scenario(spec);
      run = std::move(rr.base);
      rsm = std::move(rr.rsm);
    } else {
      run = run_scenario(spec);
    }
  }

  if (rsm.election_violations > 0) {
    v.classes |= fuzz_class_bit(FuzzClass::Election);
  }
  if (rsm.log_mismatches > 0) {
    v.classes |= fuzz_class_bit(FuzzClass::LogDiverge);
  }
  if (rsm.state_mismatches > 0) {
    v.classes |= fuzz_class_bit(FuzzClass::StateDiverge);
  }
  if (rsm.liveness_violations > 0 || rsm.stalled_recoveries > 0) {
    v.classes |= fuzz_class_bit(FuzzClass::RsmStall);
  }
  if (run.ab.agreement_violations > 0) {
    v.classes |= fuzz_class_bit(FuzzClass::Agreement);
  }
  // AB1 is only meaningful with a live audience: a lone correct node has
  // nobody to acknowledge its frames, so "its broadcast was never
  // delivered" restates the crash scenario, not a protocol defect.
  if (run.ab.validity_violations > 0 && run.ab.correct_nodes >= 2) {
    v.classes |= fuzz_class_bit(FuzzClass::Validity);
  }
  if (run.ab.duplicate_deliveries > 0) {
    v.classes |= fuzz_class_bit(FuzzClass::Duplicate);
  }
  if (run.ab.order_inversions > 0 || run.ab.fifo_violations > 0) {
    v.classes |= fuzz_class_bit(FuzzClass::Order);
  }
  if (run.ab.nontriviality_violations > 0) {
    v.classes |= fuzz_class_bit(FuzzClass::NonTriviality);
  }
  if (!run.invariants.clean()) {
    v.classes |= fuzz_class_bit(FuzzClass::Invariant);
  }
  if (!run.quiesced) v.classes |= fuzz_class_bit(FuzzClass::Timeout);

  // Attack classes, judged on what the attackers *achieved*, not what was
  // scheduled: a spoof that lands, a victim actually knocked off the bus,
  // and — for the glitcher — targeted flips that broke some other property
  // (a glitch volley that the protocol absorbed is not a finding).
  if (run.attack.spoofed_delivered > 0) {
    v.classes |= fuzz_class_bit(FuzzClass::AttackSpoof);
  }
  if (run.attack.victim_busoff) {
    v.classes |= fuzz_class_bit(FuzzClass::AttackBusOff);
  }
  const std::uint32_t attack_only = fuzz_class_bit(FuzzClass::AttackSpoof) |
                                    fuzz_class_bit(FuzzClass::AttackBusOff);
  if (run.attack.glitch_flips > 0 && (v.classes & ~attack_only) != 0) {
    v.classes |= fuzz_class_bit(FuzzClass::AttackGlitch);
  }

  // Property-outcome features (the non-FSM half of the novelty signal).
  for (int i = 0; i < kFuzzClassCount; ++i) {
    if (v.classes & (1u << i)) {
      v.sig.set_feature(Signature::kClassBase + i);
    }
  }
  for (int r = 0; r < kInvariantRuleCount; ++r) {
    if (run.invariants.count(static_cast<InvariantRule>(r)) > 0) {
      v.sig.set_feature(Signature::kInvariantBase + r);
    }
  }
  bool any = false;
  bool all = true;
  for (int i = 1; i < run.outcome.n_nodes; ++i) {
    const bool got = run.outcome.deliveries[static_cast<std::size_t>(i)] > 0;
    any = any || got;
    all = all && got;
  }
  if (all) v.sig.set_feature(Signature::kDeliveredAll);
  if (!any) v.sig.set_feature(Signature::kDeliveredNone);
  if (any && !all) v.sig.set_feature(Signature::kDeliveredSplit);
  if (run.outcome.tx_attempts > 1) v.sig.set_feature(Signature::kRetransmit);
  if (run.outcome.tx_attempts > 2) {
    v.sig.set_feature(Signature::kMultiRetransmit);
  }
  if (spec.crash) v.sig.set_feature(Signature::kCrashScheduled);
  if (!spec.attacks.empty()) v.sig.set_feature(Signature::kAttackScheduled);
  if (!spec.traffic.empty()) v.sig.set_feature(Signature::kTrafficMix);
  if (!run.quiesced) v.sig.set_feature(Signature::kNotQuiesced);

  if (v.violation()) {
    v.detail = fuzz_classes_to_string(v.classes) + ": " + run.ab.summary();
    if (has_rsm) {
      v.detail += "\nrsm: " + rsm.summary();
      if (!rsm.detail.empty()) v.detail += "\n" + rsm.detail;
    }
    if (run.attack.any_fired()) {
      v.detail += "\nattack: " + run.attack.summary();
    }
    if (!run.invariants.clean()) {
      v.detail += "\n" + run.invariants.summary();
    }
  }
  return v;
}

}  // namespace mcan
