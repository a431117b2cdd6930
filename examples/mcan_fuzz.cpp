// mcan-fuzz: coverage-guided scenario fuzzing as a command-line tool.
//
// Where mcan-check enumerates every flip pattern inside a window, mcan-fuzz
// searches the much larger space the enumerator cannot reach — traffic
// mixes, crashes, body bits, bus sizes — guided by FSM-transition and
// property-outcome coverage (src/fuzz/).  Campaigns are deterministic in
// (--seed, --max-execs) for any --jobs value; findings are auto-minimized,
// deduped and exported as replay-verified .scn reproducers that mcan-lint
// accepts.
//
//     mcan-fuzz run --protocol can --seed 7 --max-execs 5000
//     mcan-fuzz run --protocol major:5 --envelope --expect-classes none
//     mcan-fuzz triage fuzz-findings/*.scn
//     mcan-fuzz replay scenarios/modelcheck_can_k2_imo.scn
//     mcan-fuzz merge --corpus merged fuzz-corpus-a fuzz-corpus-b
//     mcan-fuzz stats --corpus fuzz-corpus
//
// Exit status: 0 = ran and every --expect-classes gate held, 1 = a gate
// failed (or an exported reproducer failed replay), 2 = usage error,
// 130 = interrupted (SIGINT/SIGTERM; corpus and findings still flushed).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/engine.hpp"
#include "fuzz/triage.hpp"
#include "scenario/sweep_cli.hpp"

namespace {

using namespace mcan;

// SIGINT/SIGTERM raise the engine's cooperative stop flag: the campaign
// finishes the round in flight, then cmd_run flushes the corpus and the
// findings exactly as on a normal exit.
// A lock-free atomic is the one flag type that is both async-signal-safe
// to store ([support.signal]) and safe for the engine's worker threads to
// poll (volatile sig_atomic_t would be a cross-thread data race).
std::atomic<bool> g_interrupted{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler requires a lock-free stop flag");

void on_signal(int) { g_interrupted.store(true); }

struct Options {
  SweepOptions sweep;
  std::string command;
  std::vector<std::string> inputs;  ///< positional files/dirs
  std::uint64_t seed = 1;
  std::uint64_t max_execs = 5000;
  double max_time_s = 0;
  int batch = 64;
  int max_flips = 0;      ///< 0 = FuzzBounds default
  bool envelope = false;  ///< cap disturbances at the protocol's tolerance
  bool mutate_protocol = false;
  std::string corpus_dir;
  std::string findings_dir = "fuzz-findings";
  std::string stats_json;
  std::optional<std::uint32_t> expect_classes;
};

void usage(std::FILE* to) {
  std::fputs(
      "usage: mcan-fuzz <run|triage|replay|merge|stats> [options] [files]\n"
      "\n"
      "Coverage-guided fuzzing of the scenario space: mutate flip patterns,\n"
      "fault timing, traffic mixes, crashes and bus sizes; keep inputs that\n"
      "reach new FSM transitions or property outcomes; minimize and export\n"
      "violations as replayable .scn files.\n"
      "\n"
      "commands:\n"
      "  run      fuzz a protocol (deterministic in --seed/--max-execs)\n"
      "  triage   minimize + dedupe + export .scn findings given as files\n"
      "  replay   run .scn files through the oracle and report classes\n"
      "  merge    fold corpus directories into --corpus, keeping novelty\n"
      "  stats    describe a corpus directory\n"
      "\n"
      "sweep options (protocol/nodes/jobs apply):\n",
      to);
  std::fputs(sweep_flags_help(), to);
  std::fputs(
      "\n"
      "tool options:\n"
      "  --seed N            campaign seed (default 1)\n"
      "  --max-execs N       execution budget (default 5000)\n"
      "  --max-time S        wall-clock budget in seconds (0 = none)\n"
      "  --batch N           executions per round (default 64)\n"
      "  --max-flips N       cap flips per input (default 8)\n"
      "  --envelope          cap disturbances at the protocol tolerance\n"
      "                      (m for MajorCAN_m) — the paper's <= m claim\n"
      "  --mutate-protocol   let mutations drift the protocol variant/m\n"
      "  --corpus DIR        seed from + save the corpus here\n"
      "  --findings DIR      write minimized reproducers here\n"
      "                      (default fuzz-findings)\n"
      "  --expect-classes L  comma list of violation classes that must all\n"
      "                      be found (none = require a clean campaign);\n"
      "                      exit 1 otherwise\n"
      "  --stats-json FILE   write campaign stats as JSON\n"
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
    std::fprintf(stderr, "mcan-fuzz: %s\n", error.c_str());
    return false;
  }
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    auto need_value = [&](const char* flag, std::string& out) -> bool {
      if (i + 1 >= rest.size()) {
        std::fprintf(stderr, "mcan-fuzz: %s needs a value\n", flag);
        return false;
      }
      out = rest[++i];
      return true;
    };
    auto need_u64 = [&](const char* flag, std::uint64_t& out) -> bool {
      std::string raw;
      if (!need_value(flag, raw)) return false;
      if (!parse_u64(raw, out)) {
        std::fprintf(stderr, "mcan-fuzz: %s wants a number, got '%s'\n", flag,
                     raw.c_str());
        return false;
      }
      return true;
    };
    auto need_int = [&](const char* flag, int& out) -> bool {
      std::uint64_t u = 0;
      if (!need_u64(flag, u)) return false;
      if (u > 1000000) {
        std::fprintf(stderr, "mcan-fuzz: %s out of range\n", flag);
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
    } else if (a == "--seed") {
      if (!need_u64("--seed", opt.seed)) return false;
    } else if (a == "--max-execs") {
      if (!need_u64("--max-execs", opt.max_execs)) return false;
    } else if (a == "--max-time") {
      if (!need_value("--max-time", v)) return false;
      char* end = nullptr;
      opt.max_time_s = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || opt.max_time_s < 0) {
        std::fprintf(stderr, "mcan-fuzz: --max-time wants seconds, got '%s'\n",
                     v.c_str());
        return false;
      }
    } else if (a == "--batch") {
      if (!need_int("--batch", opt.batch)) return false;
    } else if (a == "--max-flips") {
      if (!need_int("--max-flips", opt.max_flips)) return false;
    } else if (a == "--envelope") {
      opt.envelope = true;
    } else if (a == "--mutate-protocol") {
      opt.mutate_protocol = true;
    } else if (a == "--corpus") {
      if (!need_value("--corpus", opt.corpus_dir)) return false;
    } else if (a == "--findings") {
      if (!need_value("--findings", opt.findings_dir)) return false;
    } else if (a == "--expect-classes") {
      if (!need_value("--expect-classes", v)) return false;
      std::uint32_t mask = 0;
      if (!parse_fuzz_classes(v, mask, error)) {
        std::fprintf(stderr, "mcan-fuzz: %s\n", error.c_str());
        return false;
      }
      opt.expect_classes = mask;
    } else if (a == "--stats-json") {
      if (!need_value("--stats-json", opt.stats_json)) return false;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "mcan-fuzz: unknown option %s\n", a.c_str());
      return false;
    } else if (opt.command.empty()) {
      opt.command = a;
    } else {
      opt.inputs.push_back(a);
    }
  }
  if (opt.command.empty()) {
    std::fprintf(stderr, "mcan-fuzz: no command given\n");
    return false;
  }
  return true;
}

/// The single protocol a fuzz campaign targets.
ProtocolParams target_protocol(const Options& opt) {
  const std::vector<ProtocolParams> set = opt.sweep.protocols;
  if (set.size() > 1) {
    throw std::invalid_argument(
        "mcan-fuzz targets one protocol per campaign; give --protocol once");
  }
  return set.empty() ? ProtocolParams::standard_can() : set.front();
}

FuzzConfig make_config(const Options& opt, const ProtocolParams& proto) {
  FuzzConfig cfg;
  cfg.protocol = proto;
  cfg.n_nodes = opt.sweep.n_nodes;
  cfg.seed = opt.seed;
  cfg.max_execs = opt.max_execs;
  cfg.max_time_s = opt.max_time_s;
  cfg.jobs = opt.sweep.jobs;
  cfg.batch = opt.batch;
  cfg.bounds.mutate_protocol = opt.mutate_protocol;
  if (opt.max_flips > 0) cfg.bounds.max_flips = opt.max_flips;
  if (opt.envelope) {
    // The paper's <= m claim is about frame-tail disturbances with a
    // fixed set of live nodes: cap the flip count at the protocol's
    // tolerance (m for MajorCAN_m; the classic variants tolerate none,
    // but a cap below 2 would leave nothing to search), restrict flips to
    // the EOF-relative end-game window the model checker sweeps, and keep
    // crashes out — fail-silence is a separate fault hypothesis.  Without
    // --envelope the fuzzer happily shows that a single mid-frame body
    // flip defeats even MajorCAN (the corrupted receiver accepts by
    // majority but has no intact frame to deliver); see docs/FUZZING.md.
    cfg.bounds.max_flips =
        proto.variant == Variant::MajorCan ? proto.m : 2;
    cfg.bounds.allow_body = false;
    cfg.bounds.allow_crash = false;
    cfg.bounds.mutate_protocol = false;
  }
  return cfg;
}

int check_expect_gate(const Options& opt, std::uint32_t found) {
  return opt.expect_classes
             ? check_class_gate("mcan-fuzz", *opt.expect_classes, found)
             : 0;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "mcan-fuzz: cannot write %s\n", path.c_str());
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

int cmd_run(const Options& opt) {
  const ProtocolParams proto = target_protocol(opt);
  FuzzConfig cfg = make_config(opt, proto);
  cfg.stop = &g_interrupted;
  if (opt.sweep.progress) {
    cfg.on_round = [](const FuzzStats& st) {
      std::fprintf(stderr,
                   "\r%llu execs, corpus %d (%d sig bits, %d fsm), "
                   "%llu findings [%s]   ",
                   static_cast<unsigned long long>(st.execs), st.corpus_size,
                   st.signature_bits, st.fsm_transitions,
                   static_cast<unsigned long long>(st.findings),
                   fuzz_classes_to_string(st.classes_seen).c_str());
    };
  }

  std::vector<ScenarioSpec> seeds;
  if (!opt.corpus_dir.empty() &&
      std::filesystem::is_directory(opt.corpus_dir)) {
    for (const std::string& f : expand_inputs({opt.corpus_dir})) {
      seeds.push_back(load_scenario_file(f));
    }
    std::printf("seeded %zu corpus entries from %s\n", seeds.size(),
                opt.corpus_dir.c_str());
  }

  const FuzzResult res = run_fuzz(cfg, seeds);
  if (opt.sweep.progress) std::fprintf(stderr, "\n");

  std::printf(
      "%s nodes=%d seed=%llu: %llu execs, %llu admitted (corpus %d after"
      " %llu evictions), %d signature bits (%d FSM transitions),"
      " %llu findings [%s]\n",
      proto.name().c_str(), cfg.n_nodes,
      static_cast<unsigned long long>(cfg.seed),
      static_cast<unsigned long long>(res.stats.execs),
      static_cast<unsigned long long>(res.stats.admitted),
      res.stats.corpus_size,
      static_cast<unsigned long long>(res.stats.evicted),
      res.stats.signature_bits, res.stats.fsm_transitions,
      static_cast<unsigned long long>(res.stats.findings),
      fuzz_classes_to_string(res.stats.classes_seen).c_str());

  bool replay_failed = false;
  if (!res.findings.empty()) {
    const std::string campaign =
        proto.name() + ", seed " + std::to_string(opt.seed) + ", " +
        std::to_string(res.stats.execs) + " execs";
    const std::vector<TriagedFinding> triaged =
        export_findings(res.findings, opt.findings_dir, campaign);
    for (const TriagedFinding& t : triaged) {
      std::printf("  %s: %s (%d raw, exec %llu)%s\n",
                  fuzz_class_name(t.cls),
                  (opt.findings_dir + "/" + finding_file_name(t)).c_str(),
                  t.raw_count,
                  static_cast<unsigned long long>(t.exec_index),
                  t.replay_ok ? " replay verified" : " REPLAY FAILED");
      replay_failed = replay_failed || !t.replay_ok;
    }
  }

  if (!opt.corpus_dir.empty()) {
    const int n = save_corpus(res.corpus, opt.corpus_dir);
    std::printf("corpus: %d entries written to %s\n", n,
                opt.corpus_dir.c_str());
  }
  if (!opt.stats_json.empty() &&
      !write_file(opt.stats_json, fuzz_stats_json(res.stats, proto,
                                                  cfg.n_nodes, cfg.seed))) {
    return 2;
  }
  if (g_interrupted.load()) {
    std::fprintf(stderr, "mcan-fuzz: interrupted after %llu execs; corpus "
                         "and findings flushed\n",
                 static_cast<unsigned long long>(res.stats.execs));
    return 130;
  }
  if (replay_failed) return 1;
  return check_expect_gate(opt, res.stats.classes_seen);
}

int cmd_triage(const Options& opt) {
  std::vector<FuzzFinding> raw;
  std::uint32_t found = 0;
  for (const std::string& path : expand_inputs(opt.inputs)) {
    const ScenarioSpec spec = load_scenario_file(path);
    const FuzzVerdict v = run_fuzz_case(spec);
    if (!v.violation()) {
      std::printf("%s: none\n", path.c_str());
      continue;
    }
    found |= v.classes;
    raw.push_back({spec, v, raw.size()});
  }
  const std::vector<TriagedFinding> triaged =
      export_findings(raw, opt.findings_dir, "triage of " +
                          std::to_string(raw.size()) + " file(s)");
  bool replay_failed = false;
  for (const TriagedFinding& t : triaged) {
    std::printf("%s: %s/%s (%d raw)%s\n", fuzz_class_name(t.cls),
                opt.findings_dir.c_str(), finding_file_name(t).c_str(),
                t.raw_count, t.replay_ok ? " replay verified"
                                         : " REPLAY FAILED");
    replay_failed = replay_failed || !t.replay_ok;
  }
  if (replay_failed) return 1;
  return check_expect_gate(opt, found);
}

int cmd_replay(const Options& opt) {
  std::uint32_t found = 0;
  for (const std::string& path : expand_inputs(opt.inputs)) {
    const ScenarioSpec spec = load_scenario_file(path);
    const FuzzVerdict v = run_fuzz_case(spec);
    found |= v.classes;
    std::printf("%s: %s (%d signature bits)\n", path.c_str(),
                fuzz_classes_to_string(v.classes).c_str(), v.sig.popcount());
    if (v.violation()) std::printf("  %s\n", v.detail.c_str());
  }
  return check_expect_gate(opt, found);
}

int cmd_merge(const Options& opt) {
  if (opt.corpus_dir.empty()) {
    std::fprintf(stderr, "mcan-fuzz: merge needs --corpus OUT-DIR\n");
    return 2;
  }
  Corpus corpus;
  for (const std::string& dir : opt.inputs) {
    const int n = load_corpus_dir(corpus, dir);
    std::printf("%s: %d novel entries\n", dir.c_str(), n);
  }
  corpus.minimize();
  const int n = save_corpus(corpus, opt.corpus_dir);
  std::printf("merged corpus: %d entries (%d signature bits) -> %s\n", n,
              corpus.accumulated().popcount(), opt.corpus_dir.c_str());
  return 0;
}

int cmd_stats(const Options& opt) {
  if (opt.corpus_dir.empty()) {
    std::fprintf(stderr, "mcan-fuzz: stats needs --corpus DIR\n");
    return 2;
  }
  Corpus corpus;
  load_corpus_dir(corpus, opt.corpus_dir);
  std::printf("%s: %zu entries, %d signature bits, %d FSM transitions\n",
              opt.corpus_dir.c_str(), corpus.size(),
              corpus.accumulated().popcount(),
              corpus.accumulated().fsm_popcount());
  for (const CorpusEntry& e : corpus.entries()) {
    std::printf("  energy %3d  flips %zu  traffic %zu  %s\n", e.energy,
                e.spec.flips.size(), e.spec.traffic.size(),
                e.spec.protocol.name().c_str());
  }
  if (!opt.stats_json.empty()) {
    FuzzStats st;
    st.corpus_size = static_cast<int>(corpus.size());
    st.signature_bits = corpus.accumulated().popcount();
    st.fsm_transitions = corpus.accumulated().fsm_popcount();
    if (!write_file(opt.stats_json,
                    fuzz_stats_json(st, target_protocol(opt),
                                    opt.sweep.n_nodes, opt.seed))) {
      return 2;
    }
  }
  return 0;
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
    if (opt.command == "triage") return cmd_triage(opt);
    if (opt.command == "replay") return cmd_replay(opt);
    if (opt.command == "merge") return cmd_merge(opt);
    if (opt.command == "stats") return cmd_stats(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcan-fuzz: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "mcan-fuzz: unknown command '%s'\n",
               opt.command.c_str());
  usage(stderr);
  return 2;
}
