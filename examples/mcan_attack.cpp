// mcan-attack: the adversarial attacker toolkit as a command-line tool.
//
// Three entry points into src/attack/:
//
//   sweep   per protocol, find the minimum targeted-flip budget that
//           defeats atomic broadcast (attack/optimize.hpp: heuristic
//           candidates first, then the exhaustive model-check grid), and
//           certify the error-flooder's time-to-bus-off.  With
//           --expect-budget K the sweep is a CI gate: it fails unless the
//           minimum is exactly K and every budget below K was covered
//           exhaustively clean.  --expect-clean demands no defeating
//           pattern up to --budget.
//   fuzz    a coverage-guided campaign with the attack genome space open
//           (glitch / busoff / spoof directives mutate alongside flips);
//           findings are ddmin-minimized and exported as attack-prefixed
//           replay-verified .scn reproducers that mcan-lint accepts.
//   replay  run .scn files (attack directives included) through the fuzz
//           oracle and report violation classes.
//
//     mcan-attack sweep --protocol can --budget 3 --expect-budget 1
//     mcan-attack sweep --protocol major:5 --budget 2 --expect-clean
//     mcan-attack fuzz --protocol can --seed 7 --max-execs 3000
//         --attacks 2 --budget 2 --expect-classes attackspoof,attackbusoff
//     mcan-attack replay scenarios/attack_spoof_can.scn
//
// Exit status: 0 = every gate held, 1 = a gate failed (or a reproducer
// failed replay), 2 = usage error or an output file could not be written,
// 130 = interrupted (SIGINT/SIGTERM; fuzz and replay: stats and findings
// still flushed).  `fuzz` and `replay` are the fuzz engine's shared
// commands (fuzz/command.hpp).
#include <climits>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "attack/optimize.hpp"
#include "fuzz/command.hpp"
#include "scenario/model_check.hpp"
#include "sim/kernel.hpp"
#include "util/stop.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

struct Options {
  Options() {
    job.cfg.max_execs = 3000;
    job.cfg.bounds.attack_budget = 3;
    cmd.findings_dir = "attack-findings";
  }

  FuzzJob job{FuzzKind::Attack};  ///< fuzz campaign; --budget for both
  CheckSweep sweep;               ///< protocol set and bus size
  RunOptions run;
  FuzzCommand cmd;           ///< fuzz: outputs and gate; sweep: --stats-json
  bool with_faults = false;  ///< fuzz: also mutate random flips/crashes
  long long max_cases = 0;   ///< sweep: exhaustive budget per k (0 = all)
  int expect_budget = 0;     ///< 0 = no gate
  bool expect_clean = false;
  std::string emit_scn;  ///< sweep: witness .scn path prefix
  std::string command;
  std::vector<std::string> inputs;
};

BoundOptions bind_options(Options& opt) {
  static const OptionTable<Options> tool = [] {
    OptionTable<Options> t;
    t.integer({"--max-cases", "", "", "N",
               "sweep: exhaustive case cap per budget, 0 = all"},
              &Options::max_cases, 0, LLONG_MAX)
        .integer({"--expect-budget", "", "", "K",
                  "gate: minimum defeating budget must be K and\n"
                  "budgets below K exhaustively clean; 0 = off"},
                 &Options::expect_budget, 0, 64)
        .toggle({"--expect-clean", "", "", "",
                 "gate: no violation up to --budget (sweep) /\n"
                 "no violation class found (fuzz, replay)"},
                &Options::expect_clean, true)
        .toggle({"--with-faults", "", "", "",
                 "fuzz: mutate random flips/crashes alongside\n"
                 "the attackers (default: attacks only)"},
                &Options::with_faults, true)
        .text({"--emit-scn", "", "", "PREFIX",
               "sweep: write each protocol's minimum-budget\n"
               "witness as PREFIX<protocol>.scn"},
              &Options::emit_scn);
    return t;
  }();
  return join({check_sweep_options().bind(opt.sweep, {"--protocol", "--nodes"}),
               fuzz_options(FuzzKind::Attack)
                   .bind(opt.job, {"--budget", "--seed", "--max-execs",
                                   "--batch", "--attacks", "--no-spoof",
                                   "--no-busoff"}),
               run_options().bind(opt.run, {"--jobs", "--window"}),
               {kernel_option()}, tool.bind(opt),
               fuzz_command_options().bind(opt.cmd,
                                           {"--findings", "--stats-json"}),
               {expect_classes_option(opt.cmd.expect_classes)}});
}

constexpr const char* kUsage =
    "usage: mcan-attack <sweep|fuzz|replay> [options] [files]\n"
    "\n"
    "Adversarial attacker models against the protocol set: a reactive\n"
    "bit-glitcher, an error-frame flooder driving victims to bus-off,\n"
    "and a spoofed-ID attacker — optimized, fuzzed and replayed.\n"
    "\n"
    "commands:\n"
    "  sweep    minimum defeating glitch budget + time-to-bus-off per\n"
    "           protocol (exhaustive certification below the minimum);\n"
    "           probes budgets 1..--budget, --window LO sets the\n"
    "           window's low end\n"
    "  fuzz     coverage-guided campaign over the attack genome space\n"
    "           (one --protocol, default can)\n"
    "  replay   run .scn files through the oracle and report classes\n";

// --- sweep ----------------------------------------------------------------

int cmd_sweep(const Options& opt) {
  const int n_nodes = opt.sweep.nodes;
  const int budget = opt.job.cfg.bounds.attack_budget;
  BudgetProbeOptions po;
  po.jobs = opt.run.jobs;
  po.max_cases = opt.max_cases;
  if (opt.run.window) po.win_lo = opt.run.window->first;

  std::string json = "{\"nodes\": " + std::to_string(n_nodes) +
                     ", \"max_budget\": " + std::to_string(budget) +
                     ", \"protocols\": [\n";
  int rc = 0;
  bool first = true;
  for (const ProtocolParams& proto : opt.sweep.protocol_set()) {
    const MinBudgetResult res =
        find_min_defeating_budget(proto, n_nodes, budget, po);
    const AttackReport busoff = measure_time_to_busoff(proto, n_nodes);
    std::printf("%s\n", res.summary().c_str());
    std::printf("  bus-off flooder: %s\n", busoff.summary().c_str());

    if (!first) json += ",\n";
    first = false;
    json += "  {\"protocol\": \"" + proto.name() +
            "\", \"min_defeating_budget\": " + std::to_string(res.budget) +
            ", \"clean_below_certified\": " +
            (res.clean_below_certified() ? "true" : "false") +
            ", \"busoff_t\": " + std::to_string(busoff.busoff_t) +
            ", \"busoff_attempts\": " +
            std::to_string(busoff.busoff_attempts) +
            ", \"victim_peak_tec\": " +
            std::to_string(busoff.victim_peak_tec) + ", \"probes\": [";
    for (std::size_t i = 0; i < res.probes.size(); ++i) {
      const BudgetProbe& p = res.probes[i];
      if (i) json += ", ";
      json += "{\"k\": " + std::to_string(p.k) +
              ", \"cases\": " + std::to_string(p.cases) +
              ", \"exhaustive\": " + (p.exhaustive ? "true" : "false") +
              ", \"violation\": " + (p.violation ? "true" : "false") + "}";
    }
    json += "]}";

    if (opt.expect_budget > 0) {
      if (res.budget != opt.expect_budget) {
        std::fprintf(stderr,
                     "mcan-attack: FAIL: %s expected min budget %d, got %d\n",
                     proto.name().c_str(), opt.expect_budget, res.budget);
        rc = 1;
      } else if (opt.max_cases == 0 && !res.clean_below_certified()) {
        // Exhaustive certification is only demanded when the search was
        // unbounded; with --max-cases the gate checks the minimum alone.
        std::fprintf(stderr,
                     "mcan-attack: FAIL: %s budgets below %d not "
                     "exhaustively certified clean\n",
                     proto.name().c_str(), res.budget);
        rc = 1;
      }
    }
    if (!opt.emit_scn.empty() && res.budget > 0) {
      const BudgetProbe& hit = res.probes.back();
      ScenarioSpec wit = witness_scenario(proto, n_nodes, hit);
      ScenarioWriteOptions wo;
      wo.header = {"Minimum-budget glitch witness for " + proto.name() +
                       " (N=" + std::to_string(n_nodes) + "): " +
                       std::to_string(res.budget) +
                       " targeted view flips defeat atomic broadcast.",
                   hit.witness_desc,
                   "Generated by: mcan-attack sweep --emit-scn"};
      const std::string path =
          opt.emit_scn + file_slug(proto.name()) + ".scn";
      if (!write_text_file("mcan-attack", path, write_scenario(wit, wo))) {
        return 2;
      }
      std::printf("  witness written to %s\n", path.c_str());
    }
    if (opt.expect_clean && res.budget != -1) {
      std::fprintf(stderr,
                   "mcan-attack: FAIL: %s expected clean up to budget %d "
                   "but budget %d defeats it\n",
                   proto.name().c_str(), budget, res.budget);
      rc = 1;
    }
  }
  json += "\n]}\n";
  if (!opt.cmd.stats_json.empty() &&
      !write_text_file("mcan-attack", opt.cmd.stats_json, json)) {
    return 2;
  }
  return rc;
}

// --- fuzz -----------------------------------------------------------------

int cmd_fuzz(const Options& opt) {
  FuzzJob job = opt.job;
  job.cfg.protocol = opt.sweep.single_protocol();
  job.cfg.n_nodes = opt.sweep.nodes;
  job.cfg.jobs = opt.run.jobs;
  job.cfg.stop = &stop_flag();
  if (!opt.with_faults) {
    // Pure-attacker threat model (the one the sweep's budgets certify):
    // no random flips, body corruption or crashes alongside the attacks —
    // otherwise a mid-frame body flip defeats any protocol and the
    // --expect-clean gate would measure the fault envelope, not the
    // attacker.  --with-faults re-opens the combined space, which is the
    // one a served "attack" job runs.
    job.cfg.bounds.max_flips = 0;
    job.cfg.bounds.allow_body = false;
    job.cfg.bounds.allow_crash = false;
  }
  FuzzCommand cmd = opt.cmd;
  cmd.progress = false;  // mcan-attack has no --no-progress
  return run_fuzz_command("mcan-attack", std::move(job), cmd);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;
  if (const int rc = parse_flags("mcan-attack", argc, argv, bind_options(opt),
                                 kUsage, &positional);
      rc >= 0) {
    return rc;
  }
  if (positional.empty()) {
    std::fprintf(stderr, "mcan-attack: no command given (see --help)\n");
    return 2;
  }
  opt.command = positional.front();
  opt.inputs.assign(positional.begin() + 1, positional.end());
  if (opt.expect_clean) opt.cmd.expect_classes = 0;
  // The sweep polls no stop flag: SIGINT still ends it at once.
  if (opt.command != "sweep") install_stop_handlers();
  try {
    if (opt.command == "sweep") return cmd_sweep(opt);
    if (opt.command == "fuzz") return cmd_fuzz(opt);
    if (opt.command == "replay") {
      return run_replay_command("mcan-attack", opt.inputs,
                                opt.cmd.expect_classes, &stop_flag());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcan-attack: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "mcan-attack: unknown command '%s' (see --help)\n",
               opt.command.c_str());
  return 2;
}
