// mcan-rsm: the consensus layer as a command-line tool.
//
// Drives a replicated state machine (src/rsm/) over the simulated bus and
// judges the application-level properties — election safety, log matching,
// state-machine safety, liveness — that the paper's atomic-broadcast claim
// is ultimately for.  Three engines share one vocabulary:
//
//     mcan-rsm run scenarios/rsm_can_k2_diverge.scn
//     mcan-rsm run --protocol major:5 --crash-node 1 --recover-t 12000
//     mcan-rsm check --protocol major:3 -k 3 --nodes 3 --expect-clean
//     mcan-rsm check --protocol can -k 2 --window 4:6
//     mcan-rsm fuzz --protocol can --seed 1 --max-execs 5000
//     mcan-rsm fuzz --protocol major:5 --envelope --expect-classes none
//     mcan-rsm replay scenarios/rsm_*.scn
//
// Exit status: 0 = ran and every gate held, 1 = a gate failed (or an
// exported reproducer failed replay), 2 = usage error or an output file
// could not be written, 130 = interrupted (SIGINT/SIGTERM; partial
// results still reported).  `fuzz` and `replay` are the fuzz engine's
// shared commands (fuzz/command.hpp).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/command.hpp"
#include "rsm/check.hpp"
#include "scenario/model_check.hpp"
#include "sim/kernel.hpp"
#include "util/stop.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

struct Options {
  Options() {
    job.cfg.max_execs = 5000;
    cmd.findings_dir = "rsm-findings";
  }

  FuzzJob job{FuzzKind::Rsm};  ///< workload, bus size, fuzz campaign
  CheckSweep sweep;            ///< check: protocol set and k
  RunOptions run;
  FuzzCommand cmd;     ///< fuzz: outputs and gate; check: --findings
  int max_frames = 2;  ///< check: flip targets cover this many frames
  bool expect_clean = false;
  std::string command;
  std::vector<std::string> inputs;  ///< positional .scn files/dirs
};

BoundOptions bind_options(Options& opt) {
  static const OptionTable<Options> tool = [] {
    OptionTable<Options> t;
    t.integer({"--max-frames", "", "", "N",
               "check: flip targets per frame index < N"},
              &Options::max_frames, 1, 1000)
        .toggle({"--expect-clean", "", "", "",
                 "exit 1 unless every property held everywhere"},
                &Options::expect_clean, true);
    return t;
  }();
  return join(
      {check_sweep_options().bind(opt.sweep, {"--protocol", "--errors"}),
       fuzz_options(FuzzKind::Rsm)
           .bind(opt.job, {"--nodes", "--commands", "--payload", "--rsm-k",
                           "--spacing", "--link", "--crash-node", "--crash-t",
                           "--recover-t", "--seed", "--max-execs", "--batch",
                           "--max-flips", "--envelope"}),
       run_options().bind(opt.run, {"--jobs", "--window", "--no-progress"}),
       {kernel_option()}, tool.bind(opt),
       fuzz_command_options().bind(opt.cmd, {"--findings", "--stats-json"}),
       {expect_classes_option(opt.cmd.expect_classes)}});
}

constexpr const char* kUsage =
    "usage: mcan-rsm <run|check|fuzz|replay> [options] [files.scn]\n"
    "\n"
    "Replicated-state-machine consensus over the simulated bus: commands\n"
    "fragment into tagged frames, replicas append in total order and\n"
    "commit on k votes; crashed hosts rejoin via snapshot transfer.  The\n"
    "checkers judge election safety, log matching, state-machine safety\n"
    "and liveness — standard CAN's inconsistent message omission breaks\n"
    "them, MajorCAN_m inside its <= m envelope does not.\n"
    "\n"
    "commands:\n"
    "  run      run .scn files (or one synthesized scenario) and report\n"
    "  check    bounded model check: every flip pattern in the window\n"
    "           (--protocol set, -k, --window, --max-frames)\n"
    "  fuzz     coverage-guided search with the consensus workload\n"
    "           (--seed, --max-execs, --batch, --max-flips, --envelope)\n"
    "  replay   .scn files through the fuzz oracle; report classes\n"
    "\n"
    "The workload flags (--commands ... --recover-t) apply to every\n"
    "command; run and fuzz take one --protocol (default can).\n";

int report_run(const std::string& label, const RsmRunResult& res,
               const Options& opt, bool& any_dirty, bool& any_unmet) {
  std::printf("%s: %s%s\n  %s\n", label.c_str(),
              res.rsm.clean() ? "clean" : "VIOLATION",
              res.base.quiesced ? "" : " (never quiesced)",
              res.rsm.summary().c_str());
  if (!res.rsm.clean() && !res.rsm.detail.empty()) {
    std::printf("  %s\n", res.rsm.detail.c_str());
  }
  if (!res.base.expectation_met) {
    std::printf("  EXPECTATION NOT MET: %s\n",
                res.base.expectation_text.c_str());
    any_unmet = true;
  }
  if (!res.rsm.clean() || !res.base.quiesced) any_dirty = true;
  (void)opt;
  return 0;
}

int cmd_run(const Options& opt) {
  bool any_dirty = false;
  bool any_unmet = false;
  if (opt.inputs.empty()) {
    // Synthesize one scenario from the flags.
    ScenarioSpec spec;
    spec.name = "mcan-rsm run";
    spec.protocol = opt.sweep.single_protocol();
    spec.n_nodes = opt.job.cfg.n_nodes;
    spec.rsm = sanitize_rsm_workload(*opt.job.cfg.workload, spec.n_nodes);
    const RsmRunResult res = run_rsm_scenario(spec);
    report_run(spec.protocol.name(), res, opt, any_dirty, any_unmet);
  } else {
    for (const std::string& path : scenario_files(opt.inputs)) {
      ScenarioSpec spec = load_scenario_file(path);
      if (!spec.rsm) {
        // A wire-level scenario: attach the flag workload so the judge
        // has an application to watch.
        spec.rsm = sanitize_rsm_workload(*opt.job.cfg.workload, spec.n_nodes);
      }
      const RsmRunResult res = run_rsm_scenario(spec);
      report_run(path, res, opt, any_dirty, any_unmet);
    }
  }
  if (stop_flag().load()) return 130;
  if (any_unmet) return 1;
  if (opt.expect_clean && any_dirty) {
    std::fprintf(stderr, "mcan-rsm: FAIL: --expect-clean\n");
    return 1;
  }
  return 0;
}

int cmd_check(const Options& opt) {
  bool any_violations = false;
  bool stopped = false;
  const int n_nodes = opt.job.cfg.n_nodes;
  for (const ProtocolParams& proto : opt.sweep.protocol_set()) {
    RsmCheckConfig cfg;
    cfg.base.protocol = proto;
    cfg.base.n_nodes = n_nodes;
    cfg.base.rsm = sanitize_rsm_workload(*opt.job.cfg.workload, n_nodes);
    cfg.max_k = opt.sweep.max_k;
    if (opt.run.window) {
      cfg.win_lo = opt.run.window->first;
      cfg.win_hi = opt.run.window->second;
    }
    cfg.max_frames = opt.max_frames;
    cfg.jobs = opt.run.jobs;
    cfg.stop = &stop_flag();
    const RsmCheckResult res = run_rsm_check(cfg);
    std::printf("%s nodes=%d k<=%d window %d..%d: %s\n", proto.name().c_str(),
                cfg.base.n_nodes, cfg.max_k, cfg.win_lo, cfg.window_hi(),
                res.summary().c_str());
    for (std::size_t i = 0; i < res.findings.size(); ++i) {
      ScenarioSpec spec = res.findings[i];
      spec.expect = Expectation::Imo;
      spec.name = "rsm-check-" + file_slug(proto.name()) + "-" +
                  std::to_string(i);
      const std::string path =
          opt.cmd.findings_dir + "/" + spec.name + ".scn";
      std::filesystem::create_directories(opt.cmd.findings_dir);
      if (!write_text_file("mcan-rsm", path, write_scenario(spec))) return 2;
      std::printf("  counterexample: %s\n", path.c_str());
    }
    any_violations = any_violations || res.violations() > 0;
    stopped = stopped || res.stopped;
  }
  if (stopped || stop_flag().load()) return 130;
  if (opt.expect_clean && any_violations) {
    std::fprintf(stderr, "mcan-rsm: FAIL: --expect-clean\n");
    return 1;
  }
  return 0;
}

int cmd_fuzz(const Options& opt) {
  FuzzJob job = opt.job;
  job.cfg.protocol = opt.sweep.single_protocol();
  job.cfg.jobs = opt.run.jobs;
  job.cfg.stop = &stop_flag();
  FuzzCommand cmd = opt.cmd;
  cmd.progress = opt.run.progress;
  return run_fuzz_command("mcan-rsm", std::move(job), cmd);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;
  if (const int rc = parse_flags("mcan-rsm", argc, argv, bind_options(opt),
                                 kUsage, &positional);
      rc >= 0) {
    return rc;
  }
  if (positional.empty()) {
    std::fprintf(stderr, "mcan-rsm: no command given (see --help)\n");
    return 2;
  }
  opt.command = positional.front();
  opt.inputs.assign(positional.begin() + 1, positional.end());
  install_stop_handlers();
  try {
    if (opt.command == "run") return cmd_run(opt);
    if (opt.command == "check") return cmd_check(opt);
    if (opt.command == "fuzz") return cmd_fuzz(opt);
    if (opt.command == "replay") {
      return run_replay_command("mcan-rsm", opt.inputs,
                                opt.cmd.expect_classes, &stop_flag());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcan-rsm: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "mcan-rsm: unknown command '%s' (see --help)\n",
               opt.command.c_str());
  return 2;
}
