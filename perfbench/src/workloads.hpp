// The four workloads and the traced layer stages.
//
// Every workload has three entry points:
//   *_e2e     the untraced run: end-to-end metrics for the workload;
//   *_rep     one repetition of the workload (optionally traced), verified
//             against the expectation; used by the traced run for the
//             process, kernel and tracing-overhead metrics;
//   *_layers  the traced layer stage: per-layer metrics of the engine the
//             workload exercises.  Returns its traced repetition.
#pragma once

#include <vector>

#include "common.hpp"
#include "scenario/dsl.hpp"

namespace pb {

/// One repetition: host wall time, CPU time and units of work completed.
struct Rep {
  double wall_s = 0;
  double cpu_s = 0;
  double units = 0;
};

void fuzz_e2e(const Args& a, Report& r);
Rep fuzz_rep(const Args& a, Report& r, Tracer* tr);
/// Also fills `sample` with the fixed input sample the replay stage uses.
Rep fuzz_layers(const Args& a, Report& r, Tracer& tr,
                std::vector<mcan::ScenarioSpec>& sample);

/// Staged replay of fuzz inputs (scenario, sim and analysis layers).
void replay_layers(const Args& a, Report& r, Tracer& tr,
                   const std::vector<mcan::ScenarioSpec>& sample);

void rare_e2e(const Args& a, Report& r);
Rep rare_rep(const Args& a, Report& r, Tracer* tr);
Rep rare_layers(const Args& a, Report& r, Tracer& tr);

void check_e2e(const Args& a, Report& r);
Rep check_rep(const Args& a, Report& r, Tracer* tr);
Rep check_layers(const Args& a, Report& r, Tracer& tr);

void serve_e2e(const Args& a, Report& r);
Rep serve_rep(const Args& a, Report& r, Tracer* tr);
Rep serve_layers(const Args& a, Report& r, Tracer& tr);

/// Emit the end-to-end metric set shared by every workload: medians of
/// the repetition rates and set-up times, and of each latency group's p50
/// and p90 (a group is one repetition's job latencies, so a slow spell of
/// the host moves a minority of groups, not the result).
void emit_e2e(Report& r, const std::vector<double>& rates,
              const std::vector<double>& setups,
              const std::vector<std::vector<double>>& job_latency_s);

/// Run `fn` until `seconds` have passed since `t0`, at least `min_reps`
/// times.
template <class Fn>
void repeat_until(double t0, double seconds, int min_reps, Fn&& fn) {
  for (int n = 0; n < min_reps || now_s() - t0 < seconds; ++n) fn();
}

}  // namespace pb
