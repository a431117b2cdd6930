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
#include "sim/kernel.hpp"

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
  Options() { job.cfg.max_execs = 5000; }

  FuzzJob job;
  RunOptions run;
  std::string corpus_dir;
  std::string findings_dir = "fuzz-findings";
  std::string stats_json;
  std::optional<std::uint32_t> expect_classes;
  std::string command;
  std::vector<std::string> inputs;  ///< positional files/dirs
};

BoundOptions bind_options(Options& opt) {
  static const OptionTable<Options> tool = [] {
    OptionTable<Options> t;
    t.text({"--corpus", "", "", "DIR", "seed from + save the corpus here"},
           &Options::corpus_dir)
        .text({"--findings", "", "", "DIR",
               "write minimized reproducers here"},
              &Options::findings_dir)
        .text({"--stats-json", "", "", "FILE",
               "write campaign stats as JSON"},
              &Options::stats_json);
    return t;
  }();
  return join({fuzz_options(FuzzKind::Fuzz)
                   .bind(opt.job, {"--protocol", "--nodes", "--seed",
                                   "--max-execs", "--max-time", "--batch",
                                   "--max-flips", "--envelope",
                                   "--mutate-protocol"}),
               run_options().bind(opt.run, {"--jobs", "--no-progress"}),
               {kernel_option()}, tool.bind(opt),
               {expect_classes_option(opt.expect_classes)}});
}

constexpr const char* kUsage =
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
    "  stats    describe a corpus directory\n";

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

int cmd_run(const Options& opt) {
  FuzzJob job = opt.job;
  job.resolve();
  FuzzConfig cfg = job.cfg;
  const ProtocolParams proto = cfg.protocol;
  cfg.jobs = opt.run.jobs;
  cfg.stop = &g_interrupted;
  if (opt.run.progress) {
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
    for (const std::string& f : scenario_files({opt.corpus_dir})) {
      seeds.push_back(load_scenario_file(f));
    }
    std::printf("seeded %zu corpus entries from %s\n", seeds.size(),
                opt.corpus_dir.c_str());
  }

  const FuzzResult res = run_fuzz(cfg, seeds);
  if (opt.run.progress) std::fprintf(stderr, "\n");

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
        proto.name() + ", seed " + std::to_string(cfg.seed) + ", " +
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
  for (const std::string& path : scenario_files(opt.inputs)) {
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
  for (const std::string& path : scenario_files(opt.inputs)) {
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
                    fuzz_stats_json(st, opt.job.cfg.protocol,
                                    opt.job.cfg.n_nodes, opt.job.cfg.seed))) {
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;
  if (const int rc = parse_flags("mcan-fuzz", argc, argv, bind_options(opt),
                                 kUsage, &positional);
      rc >= 0) {
    return rc;
  }
  if (positional.empty()) {
    std::fprintf(stderr, "mcan-fuzz: no command given (see --help)\n");
    return 2;
  }
  opt.command = positional.front();
  opt.inputs.assign(positional.begin() + 1, positional.end());
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
  std::fprintf(stderr, "mcan-fuzz: unknown command '%s' (see --help)\n",
               opt.command.c_str());
  return 2;
}
