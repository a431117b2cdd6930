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
// exported reproducer failed replay), 2 = usage error, 130 = interrupted
// (SIGINT/SIGTERM; partial results still reported).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/engine.hpp"
#include "fuzz/triage.hpp"
#include "rsm/check.hpp"
#include "scenario/sweep_cli.hpp"

namespace {

using namespace mcan;

// SIGINT/SIGTERM raise the engines' cooperative stop flag: the sweep or
// campaign finishes the case in flight, then reports what it has.
// A lock-free atomic is the one flag type that is both async-signal-safe
// to store ([support.signal]) and safe for worker threads to poll
// (volatile sig_atomic_t would be a cross-thread data race).
std::atomic<bool> g_interrupted{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler requires a lock-free stop flag");

void on_signal(int) { g_interrupted.store(true); }

struct Options {
  SweepOptions sweep;
  std::string command;
  std::vector<std::string> inputs;  ///< positional .scn files/dirs
  RsmWorkload workload;
  bool workload_given = false;
  std::uint64_t seed = 1;
  std::uint64_t max_execs = 5000;
  int batch = 64;
  int max_flips = 0;      ///< 0 = FuzzBounds default
  int max_frames = 2;     ///< check: flip targets cover this many frames
  bool envelope = false;  ///< cap disturbances at the protocol's tolerance
  bool expect_clean = false;
  std::string findings_dir = "rsm-findings";
  std::string stats_json;
  std::optional<std::uint32_t> expect_classes;
};

void usage(std::FILE* to) {
  std::fputs(
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
      "  fuzz     coverage-guided search with the consensus workload\n"
      "  replay   .scn files through the fuzz oracle; report classes\n"
      "\n"
      "sweep options (protocol/nodes/errors/jobs/window apply):\n",
      to);
  std::fputs(sweep_flags_help(), to);
  std::fputs(
      "\n"
      "workload options (all commands):\n"
      "  --commands N        commands proposed round-robin (default 3)\n"
      "  --payload N         command payload bytes, 1..16 (default 4)\n"
      "  --rsm-k N           votes needed to commit (default 2)\n"
      "  --spacing N         bits between proposals (default 2000)\n"
      "  --link L            direct|edcan|relcan|totcan (default direct)\n"
      "  --crash-node N      host to crash (default none)\n"
      "  --crash-t T         crash time in bits\n"
      "  --recover-t T       rejoin time in bits (0 = stays down)\n"
      "\n"
      "tool options:\n"
      "  --seed N            fuzz campaign seed (default 1)\n"
      "  --max-execs N       fuzz execution budget (default 5000)\n"
      "  --batch N           fuzz executions per round (default 64)\n"
      "  --max-flips N       fuzz: cap flips per input (default 8)\n"
      "  --max-frames N      check: flip targets per frame index < N\n"
      "                      (default 2)\n"
      "  --envelope          fuzz: cap disturbances at the protocol\n"
      "                      tolerance (m for MajorCAN_m)\n"
      "  --findings DIR      write .scn reproducers here\n"
      "                      (default rsm-findings)\n"
      "  --stats-json FILE   fuzz: campaign stats as JSON (same bytes as\n"
      "                      a served \"rsm\" job's result)\n"
      "  --expect-clean      exit 1 unless every property held everywhere\n"
      "  --expect-classes L  comma list of violation classes that must all\n"
      "                      be found (none = require a clean campaign);\n"
      "                      exit 1 otherwise\n"
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
  std::vector<std::string> rest;
  std::string error;
  if (!parse_sweep_args(argc, argv, opt.sweep, rest, error)) {
    std::fprintf(stderr, "mcan-rsm: %s\n", error.c_str());
    return false;
  }
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    auto need_value = [&](const char* flag, std::string& out) -> bool {
      if (i + 1 >= rest.size()) {
        std::fprintf(stderr, "mcan-rsm: %s needs a value\n", flag);
        return false;
      }
      out = rest[++i];
      return true;
    };
    auto need_u64 = [&](const char* flag, std::uint64_t& out) -> bool {
      std::string raw;
      if (!need_value(flag, raw)) return false;
      if (!parse_u64(raw, out)) {
        std::fprintf(stderr, "mcan-rsm: %s wants a number, got '%s'\n", flag,
                     raw.c_str());
        return false;
      }
      return true;
    };
    auto need_int = [&](const char* flag, int& out) -> bool {
      std::uint64_t u = 0;
      if (!need_u64(flag, u)) return false;
      if (u > 1000000) {
        std::fprintf(stderr, "mcan-rsm: %s out of range\n", flag);
        return false;
      }
      out = static_cast<int>(u);
      return true;
    };
    std::string v;
    if (a == "-h" || a == "--help") {
      usage(stdout);
      // exit in the --help path: before any thread exists.
      std::exit(0);  // NOLINT(concurrency-mt-unsafe)
    } else if (a == "--commands") {
      if (!need_int("--commands", opt.workload.commands)) return false;
      opt.workload_given = true;
    } else if (a == "--payload") {
      if (!need_int("--payload", opt.workload.payload)) return false;
      opt.workload_given = true;
    } else if (a == "--rsm-k") {
      if (!need_int("--rsm-k", opt.workload.k)) return false;
      opt.workload_given = true;
    } else if (a == "--spacing") {
      int t = 0;
      if (!need_int("--spacing", t)) return false;
      opt.workload.spacing = static_cast<BitTime>(t);
      opt.workload_given = true;
    } else if (a == "--link") {
      if (!need_value("--link", v)) return false;
      opt.workload.link = -1;
      for (int l = 0; l < 4; ++l) {
        if (v == rsm_link_name(static_cast<RsmLink>(l))) opt.workload.link = l;
      }
      if (opt.workload.link < 0) {
        std::fprintf(stderr,
                     "mcan-rsm: --link wants direct|edcan|relcan|totcan, "
                     "got '%s'\n",
                     v.c_str());
        return false;
      }
      opt.workload_given = true;
    } else if (a == "--crash-node") {
      if (!need_int("--crash-node", opt.workload.crash_node)) return false;
      opt.workload_given = true;
    } else if (a == "--crash-t") {
      int t = 0;
      if (!need_int("--crash-t", t)) return false;
      opt.workload.crash_t = static_cast<BitTime>(t);
      opt.workload_given = true;
    } else if (a == "--recover-t") {
      int t = 0;
      if (!need_int("--recover-t", t)) return false;
      opt.workload.recover_t = static_cast<BitTime>(t);
      opt.workload_given = true;
    } else if (a == "--seed") {
      if (!need_u64("--seed", opt.seed)) return false;
    } else if (a == "--max-execs") {
      if (!need_u64("--max-execs", opt.max_execs)) return false;
    } else if (a == "--batch") {
      if (!need_int("--batch", opt.batch)) return false;
    } else if (a == "--max-flips") {
      if (!need_int("--max-flips", opt.max_flips)) return false;
    } else if (a == "--max-frames") {
      if (!need_int("--max-frames", opt.max_frames)) return false;
    } else if (a == "--envelope") {
      opt.envelope = true;
    } else if (a == "--findings") {
      if (!need_value("--findings", opt.findings_dir)) return false;
    } else if (a == "--stats-json") {
      if (!need_value("--stats-json", opt.stats_json)) return false;
    } else if (a == "--expect-clean") {
      opt.expect_clean = true;
    } else if (a == "--expect-classes") {
      if (!need_value("--expect-classes", v)) return false;
      std::uint32_t mask = 0;
      if (!parse_fuzz_classes(v, mask, error)) {
        std::fprintf(stderr, "mcan-rsm: %s\n", error.c_str());
        return false;
      }
      opt.expect_classes = mask;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "mcan-rsm: unknown option %s\n", a.c_str());
      return false;
    } else if (opt.command.empty()) {
      opt.command = a;
    } else {
      opt.inputs.push_back(a);
    }
  }
  if (opt.command.empty()) {
    std::fprintf(stderr, "mcan-rsm: no command given\n");
    return false;
  }
  return true;
}

/// The single protocol a run/fuzz invocation targets.
ProtocolParams target_protocol(const Options& opt) {
  const std::vector<ProtocolParams>& set = opt.sweep.protocols;
  if (set.size() > 1) {
    throw std::invalid_argument(
        "mcan-rsm run/fuzz target one protocol; give --protocol once");
  }
  return set.empty() ? ProtocolParams::standard_can() : set.front();
}

std::string file_slug(const std::string& name) {
  std::string out;
  for (const char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out += c;
    } else if (c >= 'A' && c <= 'Z') {
      out += static_cast<char>(c - 'A' + 'a');
    } else {
      out += '_';
    }
  }
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "mcan-rsm: cannot write %s\n", path.c_str());
    return false;
  }
  f << content;
  return static_cast<bool>(f);
}

/// Expand positional args: directories contribute their *.scn files.
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
  return opt.expect_classes
             ? check_class_gate("mcan-rsm", *opt.expect_classes, found)
             : 0;
}

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
    spec.protocol = target_protocol(opt);
    spec.n_nodes = opt.sweep.n_nodes;
    spec.rsm = sanitize_rsm_workload(opt.workload, spec.n_nodes);
    const RsmRunResult res = run_rsm_scenario(spec);
    report_run(spec.protocol.name(), res, opt, any_dirty, any_unmet);
  } else {
    for (const std::string& path : expand_inputs(opt.inputs)) {
      ScenarioSpec spec = load_scenario_file(path);
      if (!spec.rsm) {
        // A wire-level scenario: attach the flag workload so the judge
        // has an application to watch.
        spec.rsm = sanitize_rsm_workload(opt.workload, spec.n_nodes);
      }
      const RsmRunResult res = run_rsm_scenario(spec);
      report_run(path, res, opt, any_dirty, any_unmet);
    }
  }
  if (g_interrupted.load()) return 130;
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
  for (const ProtocolParams& proto : opt.sweep.protocol_set()) {
    RsmCheckConfig cfg;
    cfg.base.protocol = proto;
    cfg.base.n_nodes = opt.sweep.n_nodes;
    cfg.base.rsm = sanitize_rsm_workload(opt.workload, opt.sweep.n_nodes);
    cfg.max_k = opt.sweep.max_k;
    if (opt.sweep.win_lo) cfg.win_lo = *opt.sweep.win_lo;
    if (opt.sweep.win_hi) cfg.win_hi = *opt.sweep.win_hi;
    cfg.max_frames = opt.max_frames;
    cfg.jobs = opt.sweep.jobs;
    cfg.stop = &g_interrupted;
    const RsmCheckResult res = run_rsm_check(cfg);
    std::printf("%s nodes=%d k<=%d window %d..%d: %s\n", proto.name().c_str(),
                cfg.base.n_nodes, cfg.max_k, cfg.win_lo, cfg.window_hi(),
                res.summary().c_str());
    for (std::size_t i = 0; i < res.findings.size(); ++i) {
      ScenarioSpec spec = res.findings[i];
      spec.expect = Expectation::Imo;
      spec.name = "rsm-check-" + file_slug(proto.name()) + "-" +
                  std::to_string(i);
      const std::string path = opt.findings_dir + "/" + spec.name + ".scn";
      std::filesystem::create_directories(opt.findings_dir);
      if (!write_file(path, write_scenario(spec))) return 2;
      std::printf("  counterexample: %s\n", path.c_str());
    }
    any_violations = any_violations || res.violations() > 0;
    stopped = stopped || res.stopped;
  }
  if (stopped || g_interrupted.load()) return 130;
  if (opt.expect_clean && any_violations) {
    std::fprintf(stderr, "mcan-rsm: FAIL: --expect-clean\n");
    return 1;
  }
  return 0;
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
  cfg.workload = opt.workload;
  cfg.stop = &g_interrupted;
  if (opt.max_flips > 0) cfg.bounds.max_flips = opt.max_flips;
  if (opt.envelope) {
    // The paper's <= m claim, judged at the application: frame-tail
    // disturbances only, capped at the protocol's tolerance, no
    // fail-silence.  See mcan-fuzz --envelope for the rationale.
    cfg.bounds.max_flips = proto.variant == Variant::MajorCan ? proto.m : 2;
    cfg.bounds.allow_body = false;
    cfg.bounds.allow_crash = false;
    cfg.bounds.mutate_protocol = false;
  }
  if (opt.sweep.progress) {
    cfg.on_round = [](const FuzzStats& st) {
      std::fprintf(stderr, "\r%llu execs, corpus %d, %llu findings [%s]   ",
                   static_cast<unsigned long long>(st.execs), st.corpus_size,
                   static_cast<unsigned long long>(st.findings),
                   fuzz_classes_to_string(st.classes_seen).c_str());
    };
  }

  const FuzzResult res = run_fuzz(cfg);
  if (opt.sweep.progress) std::fprintf(stderr, "\n");
  std::printf("%s nodes=%d seed=%llu: %llu execs, %llu findings [%s]\n",
              proto.name().c_str(), cfg.n_nodes,
              static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(res.stats.execs),
              static_cast<unsigned long long>(res.stats.findings),
              fuzz_classes_to_string(res.stats.classes_seen).c_str());

  bool replay_failed = false;
  if (!res.findings.empty()) {
    const std::string campaign = proto.name() + " + rsm, seed " +
                                 std::to_string(opt.seed) + ", " +
                                 std::to_string(res.stats.execs) + " execs";
    const std::vector<TriagedFinding> triaged =
        export_findings(res.findings, opt.findings_dir, campaign);
    for (const TriagedFinding& t : triaged) {
      std::printf("  %s: %s (%d raw, exec %llu)%s\n", fuzz_class_name(t.cls),
                  (opt.findings_dir + "/" + finding_file_name(t)).c_str(),
                  t.raw_count, static_cast<unsigned long long>(t.exec_index),
                  t.replay_ok ? " replay verified" : " REPLAY FAILED");
      replay_failed = replay_failed || !t.replay_ok;
    }
  }
  if (!opt.stats_json.empty() &&
      !write_file(opt.stats_json,
                  fuzz_stats_json(res.stats, proto, cfg.n_nodes, cfg.seed))) {
    return 2;
  }
  if (g_interrupted.load()) {
    std::fprintf(stderr, "mcan-rsm: interrupted after %llu execs; findings "
                         "flushed\n",
                 static_cast<unsigned long long>(res.stats.execs));
    return 130;
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
  if (g_interrupted.load()) return 130;
  return check_expect_gate(opt, found);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(stderr);
    return 2;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  try {
    if (opt.command == "run") return cmd_run(opt);
    if (opt.command == "check") return cmd_check(opt);
    if (opt.command == "fuzz") return cmd_fuzz(opt);
    if (opt.command == "replay") return cmd_replay(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcan-rsm: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "mcan-rsm: unknown command '%s'\n",
               opt.command.c_str());
  usage(stderr);
  return 2;
}
