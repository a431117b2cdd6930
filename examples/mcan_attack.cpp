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
// failed replay), 2 = usage error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "attack/optimize.hpp"
#include "fuzz/engine.hpp"
#include "fuzz/triage.hpp"
#include "scenario/sweep_cli.hpp"

namespace {

using namespace mcan;

struct Options {
  SweepOptions sweep;
  std::string command;
  std::vector<std::string> inputs;
  std::uint64_t seed = 1;
  std::uint64_t max_execs = 3000;
  int batch = 64;
  int budget = 3;        ///< sweep: max budget probed; fuzz: glitch cap
  int max_attacks = 2;   ///< fuzz: attack directives per genome
  bool allow_spoof = true;
  bool allow_busoff = true;
  bool with_faults = false;  ///< fuzz: also mutate random flips/crashes
  long long max_cases = 0;  ///< sweep: exhaustive budget per k (0 = all)
  std::optional<int> expect_budget;
  bool expect_clean = false;
  std::optional<std::uint32_t> expect_classes;
  std::string findings_dir = "attack-findings";
  std::string stats_json;
  std::string emit_scn;  ///< sweep: witness .scn path prefix
};

void usage(std::FILE* to) {
  std::fputs(
      "usage: mcan-attack <sweep|fuzz|replay> [options] [files]\n"
      "\n"
      "Adversarial attacker models against the protocol set: a reactive\n"
      "bit-glitcher, an error-frame flooder driving victims to bus-off,\n"
      "and a spoofed-ID attacker — optimized, fuzzed and replayed.\n"
      "\n"
      "commands:\n"
      "  sweep    minimum defeating glitch budget + time-to-bus-off per\n"
      "           protocol (exhaustive certification below the minimum)\n"
      "  fuzz     coverage-guided campaign over the attack genome space\n"
      "  replay   run .scn files through the oracle and report classes\n"
      "\n"
      "sweep options (protocol/nodes/jobs apply):\n",
      to);
  std::fputs(sweep_flags_help(), to);
  std::fputs(
      "\n"
      "tool options:\n"
      "  --budget N          sweep: probe budgets 1..N (default 3);\n"
      "                      fuzz: total glitch-flip budget per genome\n"
      "  --max-cases N       sweep: exhaustive case cap per budget (0=all)\n"
      "  --expect-budget K   gate: minimum defeating budget must be K and\n"
      "                      budgets below K exhaustively clean\n"
      "  --expect-clean      gate: no violation up to --budget (sweep) /\n"
      "                      no violation class found (fuzz, replay)\n"
      "  --seed N            fuzz campaign seed (default 1)\n"
      "  --max-execs N       fuzz execution budget (default 3000)\n"
      "  --batch N           fuzz executions per round (default 64)\n"
      "  --attacks N         fuzz: attack directives per genome (default 2)\n"
      "  --no-spoof          fuzz: disable the spoofed-ID attacker\n"
      "  --no-busoff         fuzz: disable the bus-off attacker\n"
      "  --with-faults       fuzz: mutate random flips/crashes alongside\n"
      "                      the attackers (default: attacks only)\n"
      "  --findings DIR      write minimized reproducers here\n"
      "                      (default attack-findings)\n"
      "  --expect-classes L  comma list of classes that must all be found\n"
      "  --stats-json FILE   write sweep/fuzz results as JSON\n"
      "  --emit-scn PREFIX   sweep: write each protocol's minimum-budget\n"
      "                      witness as PREFIX<protocol>.scn\n"
      "  -h, --help          this text\n",
      to);
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

bool parse_args(int argc, char** argv, Options& opt) {
  // The sweep parser owns a --budget flag of its own (case cap per sweep);
  // here --budget means the attacker's flip budget, so pull it out before
  // the sweep parser can swallow it.  --max-cases covers the case cap.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::string(argv[i]) == "--budget") {
      std::uint64_t u = 0;
      if (!parse_u64(argv[i + 1], u) || u < 1 || u > 64) {
        std::fprintf(stderr, "mcan-attack: --budget wants 1..64, got '%s'\n",
                     argv[i + 1]);
        return false;
      }
      opt.budget = static_cast<int>(u);
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  std::vector<std::string> rest;
  std::string error;
  if (!parse_sweep_args(static_cast<int>(args.size()), args.data(), opt.sweep,
                        rest, error)) {
    std::fprintf(stderr, "mcan-attack: %s\n", error.c_str());
    return false;
  }
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    auto need_value = [&](const char* flag, std::string& out) -> bool {
      if (i + 1 >= rest.size()) {
        std::fprintf(stderr, "mcan-attack: %s needs a value\n", flag);
        return false;
      }
      out = rest[++i];
      return true;
    };
    auto need_int = [&](const char* flag, int& out) -> bool {
      std::string raw;
      std::uint64_t u = 0;
      if (!need_value(flag, raw)) return false;
      if (!parse_u64(raw, u) || u > 1000000) {
        std::fprintf(stderr, "mcan-attack: %s wants a number, got '%s'\n",
                     flag, raw.c_str());
        return false;
      }
      out = static_cast<int>(u);
      return true;
    };
    std::string v;
    if (a == "-h" || a == "--help") {
      usage(stdout);
      std::exit(0);  // NOLINT(concurrency-mt-unsafe)
    } else if (a == "--seed") {
      if (!need_value("--seed", v) || !parse_u64(v, opt.seed)) return false;
    } else if (a == "--max-execs") {
      if (!need_value("--max-execs", v) || !parse_u64(v, opt.max_execs)) {
        return false;
      }
    } else if (a == "--batch") {
      if (!need_int("--batch", opt.batch)) return false;
    } else if (a == "--attacks") {
      if (!need_int("--attacks", opt.max_attacks)) return false;
    } else if (a == "--max-cases") {
      int n = 0;
      if (!need_int("--max-cases", n)) return false;
      opt.max_cases = n;
    } else if (a == "--expect-budget") {
      int n = 0;
      if (!need_int("--expect-budget", n)) return false;
      opt.expect_budget = n;
    } else if (a == "--expect-clean") {
      opt.expect_clean = true;
    } else if (a == "--no-spoof") {
      opt.allow_spoof = false;
    } else if (a == "--no-busoff") {
      opt.allow_busoff = false;
    } else if (a == "--with-faults") {
      opt.with_faults = true;
    } else if (a == "--findings") {
      if (!need_value("--findings", opt.findings_dir)) return false;
    } else if (a == "--expect-classes") {
      if (!need_value("--expect-classes", v)) return false;
      std::uint32_t mask = 0;
      if (!parse_fuzz_classes(v, mask, error)) {
        std::fprintf(stderr, "mcan-attack: %s\n", error.c_str());
        return false;
      }
      opt.expect_classes = mask;
    } else if (a == "--stats-json") {
      if (!need_value("--stats-json", opt.stats_json)) return false;
    } else if (a == "--emit-scn") {
      if (!need_value("--emit-scn", opt.emit_scn)) return false;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "mcan-attack: unknown option %s\n", a.c_str());
      return false;
    } else if (opt.command.empty()) {
      opt.command = a;
    } else {
      opt.inputs.push_back(a);
    }
  }
  if (opt.command.empty()) {
    std::fprintf(stderr, "mcan-attack: no command given\n");
    return false;
  }
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "mcan-attack: cannot write %s\n", path.c_str());
    return false;
  }
  f << content;
  return static_cast<bool>(f);
}

std::vector<std::string> expand_inputs(const std::vector<std::string>& in) {
  std::vector<std::string> files;
  for (const std::string& path : in) {
    if (std::filesystem::is_directory(path)) {
      std::vector<std::filesystem::path> found;
      for (const auto& e : std::filesystem::directory_iterator(path)) {
        if (e.path().extension() == ".scn") found.push_back(e.path());
      }
      std::sort(found.begin(), found.end());
      for (const auto& p : found) files.push_back(p.string());
    } else {
      files.push_back(path);
    }
  }
  return files;
}

int check_expect_gate(const Options& opt, std::uint32_t found) {
  if (opt.expect_clean) return check_class_gate("mcan-attack", 0, found);
  return opt.expect_classes
             ? check_class_gate("mcan-attack", *opt.expect_classes, found)
             : 0;
}

// --- sweep ----------------------------------------------------------------

int cmd_sweep(const Options& opt) {
  const std::vector<ProtocolParams> protocols =
      opt.sweep.protocols.empty() ? default_protocol_set()
                                  : opt.sweep.protocols;
  BudgetProbeOptions po;
  po.jobs = opt.sweep.jobs;
  po.max_cases = opt.max_cases;
  if (opt.sweep.win_lo) po.win_lo = *opt.sweep.win_lo;

  std::string json = "{\"nodes\": " + std::to_string(opt.sweep.n_nodes) +
                     ", \"max_budget\": " + std::to_string(opt.budget) +
                     ", \"protocols\": [\n";
  int rc = 0;
  bool first = true;
  for (const ProtocolParams& proto : protocols) {
    const MinBudgetResult res = find_min_defeating_budget(
        proto, opt.sweep.n_nodes, opt.budget, po);
    const AttackReport busoff =
        measure_time_to_busoff(proto, opt.sweep.n_nodes);
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

    if (opt.expect_budget) {
      if (res.budget != *opt.expect_budget) {
        std::fprintf(stderr,
                     "mcan-attack: FAIL: %s expected min budget %d, got %d\n",
                     proto.name().c_str(), *opt.expect_budget, res.budget);
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
      ScenarioSpec wit = witness_scenario(proto, opt.sweep.n_nodes, hit);
      std::string stem = proto.name();
      std::transform(stem.begin(), stem.end(), stem.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      ScenarioWriteOptions wo;
      wo.header = {"Minimum-budget glitch witness for " + proto.name() +
                       " (N=" + std::to_string(opt.sweep.n_nodes) + "): " +
                       std::to_string(res.budget) +
                       " targeted view flips defeat atomic broadcast.",
                   hit.witness_desc,
                   "Generated by: mcan-attack sweep --emit-scn"};
      const std::string path = opt.emit_scn + stem + ".scn";
      if (!write_file(path, write_scenario(wit, wo))) return 2;
      std::printf("  witness written to %s\n", path.c_str());
    }
    if (opt.expect_clean && res.budget != -1) {
      std::fprintf(stderr,
                   "mcan-attack: FAIL: %s expected clean up to budget %d "
                   "but budget %d defeats it\n",
                   proto.name().c_str(), opt.budget, res.budget);
      rc = 1;
    }
  }
  json += "\n]}\n";
  if (!opt.stats_json.empty() && !write_file(opt.stats_json, json)) return 2;
  return rc;
}

// --- fuzz -----------------------------------------------------------------

ProtocolParams target_protocol(const Options& opt) {
  if (opt.sweep.protocols.size() > 1) {
    throw std::invalid_argument(
        "mcan-attack fuzz targets one protocol; give --protocol once");
  }
  return opt.sweep.protocols.empty() ? ProtocolParams::standard_can()
                                     : opt.sweep.protocols.front();
}

int cmd_fuzz(const Options& opt) {
  const ProtocolParams proto = target_protocol(opt);
  FuzzConfig cfg;
  cfg.protocol = proto;
  cfg.n_nodes = opt.sweep.n_nodes;
  cfg.seed = opt.seed;
  cfg.max_execs = opt.max_execs;
  cfg.jobs = opt.sweep.jobs;
  cfg.batch = opt.batch;
  cfg.bounds.max_attacks = std::max(1, opt.max_attacks);
  cfg.bounds.attack_budget = std::max(1, opt.budget);
  cfg.bounds.allow_spoof = opt.allow_spoof;
  cfg.bounds.allow_busoff = opt.allow_busoff;
  if (!opt.with_faults) {
    // Pure-attacker threat model (the one the sweep's budgets certify):
    // no random flips, body corruption or crashes alongside the attacks —
    // otherwise a mid-frame body flip defeats any protocol and the
    // --expect-clean gate would measure the fault envelope, not the
    // attacker.  --with-faults re-opens the combined space.
    cfg.bounds.max_flips = 0;
    cfg.bounds.allow_body = false;
    cfg.bounds.allow_crash = false;
  }

  const FuzzResult res = run_fuzz(cfg, {});
  std::printf(
      "%s nodes=%d seed=%llu attacks<=%d budget<=%d: %llu execs, "
      "%llu findings [%s]\n",
      proto.name().c_str(), cfg.n_nodes,
      static_cast<unsigned long long>(cfg.seed), cfg.bounds.max_attacks,
      cfg.bounds.attack_budget,
      static_cast<unsigned long long>(res.stats.execs),
      static_cast<unsigned long long>(res.stats.findings),
      fuzz_classes_to_string(res.stats.classes_seen).c_str());

  bool replay_failed = false;
  if (!res.findings.empty()) {
    std::vector<TriagedFinding> triaged = triage_findings(res.findings);
    std::filesystem::create_directories(opt.findings_dir);
    const std::string campaign =
        "attack campaign: " + proto.name() + ", seed " +
        std::to_string(opt.seed);
    for (TriagedFinding& t : triaged) {
      // Attack-prefixed reproducer names (the name is presentation; the
      // replay verdict was computed on the genome, which is unchanged).
      if (t.spec.name.rfind("fuzz-", 0) == 0) {
        t.spec.name = "attack-" + t.spec.name.substr(5);
      }
      const std::string path =
          opt.findings_dir + "/" + finding_file_name(t);
      if (!write_file(path, export_finding(t, campaign))) return 2;
      std::printf("  %s: %s (%d raw)%s\n", fuzz_class_name(t.cls),
                  path.c_str(), t.raw_count,
                  t.replay_ok ? " replay verified" : " REPLAY FAILED");
      replay_failed = replay_failed || !t.replay_ok;
    }
  }
  if (!opt.stats_json.empty() &&
      !write_file(opt.stats_json, fuzz_stats_json(res.stats, proto,
                                                  cfg.n_nodes, cfg.seed))) {
    return 2;
  }
  if (replay_failed) return 1;
  return check_expect_gate(opt, res.stats.classes_seen);
}

int cmd_replay(const Options& opt) {
  std::uint32_t found = 0;
  for (const std::string& path : expand_inputs(opt.inputs)) {
    const ScenarioSpec spec = load_scenario_file(path);
    const FuzzVerdict v = run_fuzz_case(spec);
    found |= v.classes;
    std::printf("%s: %s\n", path.c_str(),
                fuzz_classes_to_string(v.classes).c_str());
    if (v.violation()) std::printf("  %s\n", v.detail.c_str());
  }
  return check_expect_gate(opt, found);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(stderr);
    return 2;
  }
  try {
    if (opt.command == "sweep") return cmd_sweep(opt);
    if (opt.command == "fuzz") return cmd_fuzz(opt);
    if (opt.command == "replay") return cmd_replay(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcan-attack: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "mcan-attack: unknown command '%s'\n",
               opt.command.c_str());
  usage(stderr);
  return 2;
}
