#include "rsm/check.hpp"

#include "scenario/exhaustive.hpp"
#include "util/parallel.hpp"

namespace mcan {

int RsmCheckConfig::window_hi() const {
  if (win_hi >= 0) return win_hi;
  ExhaustiveConfig ex;
  ex.protocol = base.protocol;
  return ex.window_hi();
}

std::string RsmCheckResult::summary() const {
  std::string s = std::to_string(cases) + " cases: " +
                  std::to_string(clean) + " clean, " +
                  std::to_string(violations()) + " violations (election " +
                  std::to_string(election) + ", log " +
                  std::to_string(log_diverge) + ", state " +
                  std::to_string(state_diverge) + ", liveness " +
                  std::to_string(liveness) + ", stall " +
                  std::to_string(stalls) + ", timeout " +
                  std::to_string(timeouts) + ")";
  if (stopped) s += " [interrupted]";
  return s;
}

namespace {

struct FlipTarget {
  NodeId node;
  int pos;
  int frame;
};

struct Partial {
  long long cases = 0;
  long long clean = 0;
  long long timeouts = 0;
  long long election = 0;
  long long log_diverge = 0;
  long long state_diverge = 0;
  long long liveness = 0;
  long long stalls = 0;
  std::vector<ScenarioSpec> findings;
  bool stopped = false;
};

void run_case(const RsmCheckConfig& cfg,
              const std::vector<FlipTarget>& targets,
              const std::vector<int>& combo, Partial& p) {
  ScenarioSpec spec = cfg.base;
  spec.flips.clear();
  for (const int idx : combo) {
    const FlipTarget& t = targets[static_cast<std::size_t>(idx)];
    spec.flips.push_back(
        FaultTarget::eof_relative(t.node, t.pos, t.frame));
  }
  // The sweep judges the report directly; the spec's own expectation is
  // irrelevant here.
  spec.expect = Expectation::Any;
  const RsmRunResult res = run_rsm_scenario(spec);
  ++p.cases;
  const bool quiesced = res.base.quiesced;
  const bool is_clean = res.rsm.clean() && quiesced;
  if (is_clean) {
    ++p.clean;
    return;
  }
  if (!quiesced) ++p.timeouts;
  if (res.rsm.election_violations > 0) ++p.election;
  if (res.rsm.log_mismatches > 0) ++p.log_diverge;
  if (res.rsm.state_mismatches > 0) ++p.state_diverge;
  if (res.rsm.liveness_violations > 0) ++p.liveness;
  if (res.rsm.stalled_recoveries > 0) ++p.stalls;
  if (static_cast<int>(p.findings.size()) < 4) {
    p.findings.push_back(spec);
  }
}

/// Enumerate combinations of size 1..max_k whose first element is `first`
/// (lexicographic within the partition).
void enumerate_first(const RsmCheckConfig& cfg,
                     const std::vector<FlipTarget>& targets, int first,
                     Partial& p) {
  std::vector<int> combo{first};
  run_case(cfg, targets, combo, p);
  const int n = static_cast<int>(targets.size());
  // Depth-first extension: combo already ran; extend while below max_k.
  const auto stopped = [&] { return cfg.stop && cfg.stop->load(); };
  auto extend = [&](auto&& self, int from) -> void {
    if (static_cast<int>(combo.size()) >= cfg.max_k) return;
    for (int next = from; next < n; ++next) {
      if (stopped()) {
        p.stopped = true;
        return;
      }
      combo.push_back(next);
      run_case(cfg, targets, combo, p);
      self(self, next + 1);
      combo.pop_back();
    }
  };
  extend(extend, first + 1);
}

}  // namespace

RsmCheckResult run_rsm_check(const RsmCheckConfig& cfg) {
  std::vector<FlipTarget> targets;
  const int hi = cfg.window_hi();
  for (int node = 0; node < cfg.base.n_nodes; ++node) {
    for (int frame = 0; frame < cfg.max_frames; ++frame) {
      for (int pos = cfg.win_lo; pos <= hi; ++pos) {
        targets.push_back({static_cast<NodeId>(node), pos, frame});
      }
    }
  }

  std::vector<Partial> partials(targets.size());
  parallel_for(targets.size(), cfg.jobs, [&](std::size_t i) {
    Partial& p = partials[i];
    if (cfg.stop && cfg.stop->load()) {
      p.stopped = true;
      return;
    }
    enumerate_first(cfg, targets, static_cast<int>(i), p);
  });

  // Merge in partition order: totals and kept findings are independent of
  // the job count.
  RsmCheckResult out;
  for (const Partial& p : partials) {
    out.cases += p.cases;
    out.clean += p.clean;
    out.timeouts += p.timeouts;
    out.election += p.election;
    out.log_diverge += p.log_diverge;
    out.state_diverge += p.state_diverge;
    out.liveness += p.liveness;
    out.stalls += p.stalls;
    out.stopped = out.stopped || p.stopped;
    for (const ScenarioSpec& f : p.findings) {
      if (static_cast<int>(out.findings.size()) < cfg.max_findings) {
        out.findings.push_back(f);
      }
    }
  }
  return out;
}

}  // namespace mcan
