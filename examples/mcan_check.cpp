// mcan-check: the bounded model checker as a command-line tool.
//
// Sweeps every k-combination of view-flips over the frame-tail window for
// each selected protocol, using the parallel exploration engine
// (scenario/model_check.hpp), and reports violation counts with concrete
// counterexamples.  Optionally delta-debugs each counterexample to a
// minimal flip set, exports it as a .scn scenario replayable by mcan-lint,
// and emits a machine-readable JSON report plus an FSM transition-coverage
// report (instrumented builds only).
//
//     mcan-check --protocol major:5 -k 3          # exhaustive sweep
//     mcan-check --protocol can -k 2 --minimize --export-dir scenarios
//     mcan-check --budget 100000 -k 5             # bounded prefix of k=5
//     mcan-check --expect-clean --protocol major:3 -k 2   # CI gate
//
// Exit status: 0 = sweeps ran and every --expect-* gate held,
// 1 = a gate failed (violations where clean was expected, or vice versa),
// 2 = usage error or unusable configuration.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "analysis/coverage.hpp"
#include "core/fsm_coverage.hpp"
#include "scenario/minimize.hpp"
#include "scenario/model_check.hpp"
#include "sim/kernel.hpp"
#include "util/progress.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

struct Options {
  CheckSweep sweep;
  RunOptions run;
  int max_examples = 5;
  bool minimize = false;
  std::string export_dir;     ///< write minimized .scn files here
  std::string coverage_path;  ///< write the FSM coverage JSON here
  bool expect_clean = false;
  bool expect_violations = false;
};

BoundOptions bind_options(Options& opt) {
  static const OptionTable<Options> tool = [] {
    OptionTable<Options> t;
    t.integer({"--max-examples", "", "", "N",
               "keep at most N counterexamples per sweep"},
              &Options::max_examples, 0, 1000000)
        .toggle({"--minimize", "", "", "",
                 "delta-debug each counterexample to a minimal\n"
                 "flip set"},
                &Options::minimize, true)
        .text({"--export-dir", "", "", "DIR",
               "write minimized counterexamples as .scn files\n"
               "(implies --minimize; each is replay-verified)"},
              &Options::export_dir)
        .text({"--coverage", "", "", "FILE",
               "write the FSM transition-coverage report\n"
               "(needs a -DMCAN_FSM_COVERAGE=ON build)"},
              &Options::coverage_path)
        .toggle({"--expect-clean", "", "", "",
                 "exit 1 if any sweep finds a violation"},
                &Options::expect_clean, true)
        .toggle({"--expect-violations", "", "", "",
                 "exit 1 if no sweep finds a violation"},
                &Options::expect_violations, true);
    return t;
  }();
  return join({check_sweep_options().bind(opt.sweep),
               run_options().bind(opt.run), {kernel_option()},
               tool.bind(opt)});
}

constexpr const char* kUsage =
    "usage: mcan-check [options]\n"
    "\n"
    "Bounded exhaustive model checking of the frame-tail window: every\n"
    "combination of k view-flips is simulated and classified.  A clean\n"
    "sweep is a verification result for that window; a violating one\n"
    "comes with concrete counterexamples.\n";

struct SweepRecord {
  ModelCheckResult result;
  std::vector<MinimizedCounterexample> minimized;  ///< parallel to examples
  std::vector<std::string> exported;               ///< .scn paths written
};

std::string sweep_to_json(const SweepRecord& rec) {
  const ModelCheckResult& r = rec.result;
  std::string s = "{";
  s += "\"protocol\":\"" + json_escape(r.cfg.protocol.name()) + "\"";
  s += ",\"nodes\":" + std::to_string(r.cfg.n_nodes);
  s += ",\"k\":" + std::to_string(r.cfg.errors);
  s += ",\"window\":[" + std::to_string(r.cfg.win_lo_rel) + "," +
       std::to_string(r.cfg.window_hi()) + "]";
  s += ",\"complete\":" + std::string(r.complete ? "true" : "false");
  s += ",\"cases\":" + std::to_string(r.cases);
  s += ",\"imo\":" + std::to_string(r.imo);
  s += ",\"double_rx\":" + std::to_string(r.double_rx);
  s += ",\"total_loss\":" + std::to_string(r.total_loss);
  s += ",\"timeouts\":" + std::to_string(r.timeouts);
  s += ",\"stats\":{";
  s += "\"enumerated\":" + std::to_string(r.stats.enumerated);
  s += ",\"simulated\":" + std::to_string(r.stats.simulated);
  s += ",\"tail_memo_hits\":" + std::to_string(r.stats.tail_memo_hits);
  s += ",\"symmetry_skips\":" + std::to_string(r.stats.symmetry_skips);
  s += ",\"distinct_tails\":" + std::to_string(r.stats.distinct_tails);
  s += ",\"jobs\":" + std::to_string(r.stats.jobs);
  s += ",\"seconds\":" + std::to_string(r.stats.seconds);
  s += "}";
  s += ",\"examples\":[";
  for (std::size_t i = 0; i < r.examples.size(); ++i) {
    if (i) s += ",";
    s += "{\"pattern\":\"" + json_escape(r.examples[i].to_string()) + "\"";
    if (i < rec.minimized.size()) {
      const MinimizedCounterexample& ce = rec.minimized[i];
      s += ",\"minimized\":{\"class\":\"";
      s += violation_class_name(ce.cls);
      s += "\",\"flips\":[";
      for (std::size_t j = 0; j < ce.flips.size(); ++j) {
        if (j) s += ",";
        s += "{\"node\":" + std::to_string(ce.flips[j].first) +
             ",\"eof_rel\":" + std::to_string(ce.flips[j].second) + "}";
      }
      s += "],\"runs\":" + std::to_string(ce.runs) + "}";
    }
    if (i < rec.exported.size() && !rec.exported[i].empty()) {
      s += ",\"scn\":\"" + json_escape(rec.exported[i]) + "\"";
    }
    s += "}";
  }
  s += "]}";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const int rc =
          parse_flags("mcan-check", argc, argv, bind_options(opt), kUsage);
      rc >= 0) {
    return rc;
  }
  if (opt.expect_clean && opt.expect_violations) {
    std::fprintf(stderr,
                 "mcan-check: --expect-clean and --expect-violations are"
                 " mutually exclusive\n");
    return 2;
  }
  if (!opt.export_dir.empty()) opt.minimize = true;

  fsm_coverage::reset();  // scope any coverage report to this run

  const std::vector<ProtocolParams> protos = opt.sweep.protocol_set();
  std::vector<SweepRecord> records;
  bool any_violation = false;
  bool export_failed = false;

  for (const ProtocolParams& proto : protos) {
    for (int k = 1; k <= opt.sweep.max_k; ++k) {
      ModelCheckConfig mc = opt.sweep.unit(proto, k);
      if (opt.run.window) {
        mc.base.win_lo_rel = opt.run.window->first;
        mc.base.win_hi_rel = opt.run.window->second;
      }
      mc.jobs = opt.run.jobs;
      mc.max_examples = opt.max_examples;

      SweepRecord rec;
      try {
        if (opt.run.progress) {
          ProgressMeter meter(proto.name() + " k=" + std::to_string(k));
          rec.result = run_model_check(
              mc, [&meter](long long done, long long total) {
                meter.set_total(total);
                meter.update(done);
              });
          meter.finish();
        } else {
          rec.result = run_model_check(mc);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mcan-check: %s\n", e.what());
        return 2;
      }

      const ModelCheckResult& r = rec.result;
      std::printf("%s\n", r.summary().c_str());
      if (r.violations() > 0) any_violation = true;

      for (std::size_t i = 0; i < r.examples.size(); ++i) {
        std::printf("  example: %s\n", r.examples[i].to_string().c_str());
        if (!opt.minimize) continue;
        MinimizedCounterexample ce = minimize_counterexample(
            proto, opt.sweep.nodes, r.examples[i].flips);
        std::printf("  minimized (%d runs): %s ->", ce.runs,
                    violation_class_name(ce.cls));
        for (const auto& [node, pos] : ce.flips) {
          std::printf(" (node %d, EOF%+d)", node, pos);
        }
        std::printf("\n");
        std::string scn_path;
        if (!opt.export_dir.empty()) {
          const std::string title =
              "modelcheck_" + file_slug(proto.name()) + "_k" +
              std::to_string(k) + "_" + std::to_string(i);
          const std::string text =
              to_scenario_text(proto, opt.sweep.nodes, ce, title);
          scn_path = opt.export_dir + "/" + title + ".scn";
          if (write_text_file("mcan-check", scn_path, text)) {
            const ReplayResult rr = replay_scenario_text(text);
            if (!rr.parsed || !rr.expectation_met) {
              std::fprintf(stderr,
                           "mcan-check: exported %s does NOT replay to the"
                           " same verdict: %s\n",
                           scn_path.c_str(), rr.detail.c_str());
              export_failed = true;
            } else {
              std::printf("  exported %s (replay verified)\n",
                          scn_path.c_str());
            }
          } else {
            export_failed = true;
            scn_path.clear();
          }
        }
        rec.minimized.push_back(std::move(ce));
        rec.exported.push_back(scn_path);
      }
      records.push_back(std::move(rec));
    }
  }

  if (!opt.run.json.empty()) {
    std::string s = "{\"sweeps\":[";
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (i) s += ",";
      s += sweep_to_json(records[i]);
    }
    s += "]}\n";
    if (!write_text_file("mcan-check", opt.run.json, s)) return 2;
    std::printf("report written to %s\n", opt.run.json.c_str());
  }

  if (!opt.coverage_path.empty()) {
    if (!fsm_coverage_compiled()) {
      std::fprintf(stderr,
                   "mcan-check: --coverage: this build is not instrumented"
                   " (configure with -DMCAN_FSM_COVERAGE=ON)\n");
    }
    std::string s = "[";
    bool first = true;
    // One report per distinct variant in the sweep set.
    std::vector<Variant> done;
    for (const ProtocolParams& proto : protos) {
      bool dup = false;
      for (const Variant v : done) dup = dup || v == proto.variant;
      if (dup) continue;
      done.push_back(proto.variant);
      const FsmCoverageReport rep = collect_fsm_coverage(proto.variant);
      std::printf("%s", rep.summary().c_str());
      if (!first) s += ",";
      first = false;
      s += rep.to_json();
    }
    s += "]\n";
    if (!write_text_file("mcan-check", opt.coverage_path, s)) return 2;
    std::printf("coverage written to %s\n", opt.coverage_path.c_str());
  }

  if (export_failed) return 1;
  if (opt.expect_clean && any_violation) {
    std::fprintf(stderr, "mcan-check: FAIL: violations found but"
                         " --expect-clean was given\n");
    return 1;
  }
  if (opt.expect_violations && !any_violation) {
    std::fprintf(stderr, "mcan-check: FAIL: no violations found but"
                         " --expect-violations was given\n");
    return 1;
  }
  return 0;
}
