// Model-checking engine benchmark: the parallel/deduplicating explorer
// (scenario/model_check.hpp) against the reference single-threaded
// enumerator, on the identical sweep.
//
// Part 1 times the headline configuration — exhaustive k = 2 over the
// MajorCAN_5 frame-tail window — both ways and checks that every count
// (cases, IMO, double-rx, total-loss, timeouts) agrees exactly: the
// reductions must change the wall-clock, never the answer.  Part 2 shows
// the engine's work breakdown (simulated vs memoized vs symmetry-folded)
// across the protocol set.  Part 3 demonstrates budget-bounded exploration
// at k = 5, which is far beyond exhaustive reach on one machine.
//
//     bench_model_check                # defaults: k=2, all protocols
//     bench_model_check -k 3 --protocol major:5 --jobs 4
#include <chrono>
#include <cstdio>

#include "scenario/model_check.hpp"
#include "sim/kernel.hpp"
#include "util/progress.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  CheckSweep sweep;
  RunOptions run;
};

/// One unit of the sweep, exhaustive (callers that want --budget set it).
ModelCheckConfig make_config(const Options& opt, const ProtocolParams& proto,
                             int k) {
  ModelCheckConfig mc = opt.sweep.unit(proto, k);
  mc.max_cases = 0;
  if (opt.run.window) {
    mc.base.win_lo_rel = opt.run.window->first;
    mc.base.win_hi_rel = opt.run.window->second;
  }
  mc.jobs = opt.run.jobs;
  mc.max_examples = 2;
  return mc;
}

ModelCheckResult run_with_meter(const ModelCheckConfig& mc,
                                const std::string& label, bool progress) {
  if (!progress) return run_model_check(mc);
  ProgressMeter meter(label);
  auto res = run_model_check(mc, [&meter](long long done, long long total) {
    meter.set_total(total);
    meter.update(done);
  });
  meter.finish();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const int rc = parse_flags(
          "bench_model_check", argc, argv,
          join({check_sweep_options().bind(opt.sweep),
                run_options().bind(opt.run,
                                   {"--jobs", "--window", "--no-progress"}),
                {kernel_option()}}),
          "usage: bench_model_check [options]\n");
      rc >= 0) {
    return rc;
  }

  // --- Part 1: engine vs reference enumerator, identical sweep -----------
  std::printf("=== Engine vs reference enumerator (exhaustive k=2, m=5) ===\n");
  {
    const ProtocolParams proto = ProtocolParams::major_can(5);
    ExhaustiveConfig base;
    base.protocol = proto;
    base.n_nodes = opt.sweep.nodes;
    base.errors = 2;

    const double t0 = now_seconds();
    const ModelCheckResult ref = run_exhaustive(base, 2);
    const double ref_s = now_seconds() - t0;

    ModelCheckConfig mc = make_config(opt, proto, 2);
    const ModelCheckResult eng =
        run_with_meter(mc, "engine " + proto.name() + " k=2", opt.run.progress);

    const bool agree = ref.cases == eng.cases && ref.imo == eng.imo &&
                       ref.double_rx == eng.double_rx &&
                       ref.total_loss == eng.total_loss &&
                       ref.timeouts == eng.timeouts;
    std::printf("reference: %s  (%.2fs)\n", ref.summary().c_str(), ref_s);
    std::printf("engine:    %s  (%.2fs, jobs=%d)\n", eng.summary().c_str(),
                eng.stats.seconds, eng.stats.jobs);
    std::printf("counts agree: %s\n", agree ? "YES" : "NO  <-- BUG");
    if (eng.stats.seconds > 0) {
      std::printf("speedup: %.1fx  (simulated %lld of %lld cases; memo hits"
                  " %lld, symmetry-folded %lld, distinct tails %zu)\n",
                  ref_s / eng.stats.seconds, eng.stats.simulated, eng.cases,
                  eng.stats.tail_memo_hits, eng.stats.symmetry_skips,
                  eng.stats.distinct_tails);
    }
    if (!agree) return 1;
  }

  // --- Part 2: work breakdown across the protocol set --------------------
  std::printf("\n=== Engine work breakdown (k = 1..%d) ===\n", opt.sweep.max_k);
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"protocol", "k", "cases", "violations", "simulated",
                  "memo hits", "sym folded", "tails", "secs"});
  for (const ProtocolParams& proto : opt.sweep.protocol_set()) {
    for (int k = 1; k <= opt.sweep.max_k; ++k) {
      ModelCheckConfig mc = make_config(opt, proto, k);
      mc.max_cases = opt.sweep.budget;
      const ModelCheckResult r = run_with_meter(
          mc, proto.name() + " k=" + std::to_string(k), opt.run.progress);
      rows.push_back({proto.name(), std::to_string(k),
                      std::to_string(r.cases) + (r.complete ? "" : "+"),
                      std::to_string(r.violations()),
                      std::to_string(r.stats.simulated),
                      std::to_string(r.stats.tail_memo_hits),
                      std::to_string(r.stats.symmetry_skips),
                      std::to_string(r.stats.distinct_tails),
                      std::to_string(r.stats.seconds).substr(0, 5)});
    }
  }
  std::printf("%s\n", render_table(rows).c_str());

  // --- Part 3: budget-bounded k = 5 at m = 5 ------------------------------
  std::printf("=== Budget-bounded exploration: MajorCAN_5 at k = 5 ===\n");
  {
    ModelCheckConfig mc = make_config(opt, ProtocolParams::major_can(5), 5);
    mc.max_cases = opt.sweep.budget > 0 ? opt.sweep.budget : 200000;
    const ModelCheckResult r =
        run_with_meter(mc, "MajorCAN_5 k=5", opt.run.progress);
    std::printf("%s\n", r.summary().c_str());
    std::printf("covered %lld flip patterns under a %lld-pattern check"
                " budget (symmetry orbits count at full weight;"
                " complete=%s)\n",
                r.cases, mc.max_cases, r.complete ? "true" : "false");
  }

  std::printf(
      "\nreading: the engine's reductions (prefix cloning, tail\n"
      "memoization, receiver-permutation symmetry) are exact — the top\n"
      "section certifies identical counts against the reference\n"
      "enumerator before quoting any speedup.  Budget-bounded runs trade\n"
      "completeness for reach: a clean bounded k=5 run is evidence, not\n"
      "proof, while any violation it finds would be a concrete\n"
      "counterexample.\n");
  return 0;
}
