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
// failed (or an exported reproducer failed replay), 2 = usage error or an
// output file could not be written, 130 = interrupted (SIGINT/SIGTERM;
// stats, corpus and findings still flushed).  `run` and `replay` are the
// fuzz engine's shared commands (fuzz/command.hpp).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "fuzz/command.hpp"
#include "sim/kernel.hpp"
#include "util/stop.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

struct Options {
  Options() {
    job.cfg.max_execs = 5000;
    cmd.findings_dir = "fuzz-findings";
  }

  FuzzJob job;
  RunOptions run;
  FuzzCommand cmd;
  std::string command;
  std::vector<std::string> inputs;  ///< positional files/dirs
};

BoundOptions bind_options(Options& opt) {
  return join({fuzz_options(FuzzKind::Fuzz)
                   .bind(opt.job, {"--protocol", "--nodes", "--seed",
                                   "--max-execs", "--max-time", "--batch",
                                   "--max-flips", "--envelope",
                                   "--mutate-protocol"}),
               run_options().bind(opt.run, {"--jobs", "--no-progress"}),
               {kernel_option()}, fuzz_command_options().bind(opt.cmd),
               {expect_classes_option(opt.cmd.expect_classes)}});
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

int cmd_run(const Options& opt) {
  FuzzJob job = opt.job;
  job.cfg.jobs = opt.run.jobs;
  job.cfg.stop = &stop_flag();
  FuzzCommand cmd = opt.cmd;
  cmd.progress = opt.run.progress;
  return run_fuzz_command("mcan-fuzz", std::move(job), cmd);
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
  if (const int rc = export_triaged(
          "mcan-fuzz", triage_findings(raw), opt.cmd.findings_dir,
          "triage of " + std::to_string(raw.size()) + " file(s)")) {
    return rc;
  }
  return opt.cmd.expect_classes
             ? check_class_gate("mcan-fuzz", *opt.cmd.expect_classes, found)
             : 0;
}

int cmd_merge(const Options& opt) {
  if (opt.cmd.corpus_dir.empty()) {
    std::fprintf(stderr, "mcan-fuzz: merge needs --corpus OUT-DIR\n");
    return 2;
  }
  Corpus corpus;
  for (const std::string& dir : opt.inputs) {
    const int n = load_corpus_dir(corpus, dir);
    std::printf("%s: %d novel entries\n", dir.c_str(), n);
  }
  corpus.minimize();
  const int n = save_corpus(corpus, opt.cmd.corpus_dir);
  if (n < static_cast<int>(corpus.size())) {
    std::fprintf(stderr, "mcan-fuzz: cannot write the corpus to %s\n",
                 opt.cmd.corpus_dir.c_str());
    return 2;
  }
  std::printf("merged corpus: %d entries (%d signature bits) -> %s\n", n,
              corpus.accumulated().popcount(), opt.cmd.corpus_dir.c_str());
  return 0;
}

int cmd_stats(const Options& opt) {
  if (opt.cmd.corpus_dir.empty()) {
    std::fprintf(stderr, "mcan-fuzz: stats needs --corpus DIR\n");
    return 2;
  }
  Corpus corpus;
  load_corpus_dir(corpus, opt.cmd.corpus_dir);
  std::printf("%s: %zu entries, %d signature bits, %d FSM transitions\n",
              opt.cmd.corpus_dir.c_str(), corpus.size(),
              corpus.accumulated().popcount(),
              corpus.accumulated().fsm_popcount());
  for (const CorpusEntry& e : corpus.entries()) {
    std::printf("  energy %3d  flips %zu  traffic %zu  %s\n", e.energy,
                e.spec.flips.size(), e.spec.traffic.size(),
                e.spec.protocol.name().c_str());
  }
  if (!opt.cmd.stats_json.empty()) {
    FuzzStats st;
    st.corpus_size = static_cast<int>(corpus.size());
    st.signature_bits = corpus.accumulated().popcount();
    st.fsm_transitions = corpus.accumulated().fsm_popcount();
    if (!write_text_file("mcan-fuzz", opt.cmd.stats_json,
                         fuzz_stats_json(st, opt.job.cfg.protocol,
                                         opt.job.cfg.n_nodes,
                                         opt.job.cfg.seed))) {
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
  install_stop_handlers();
  try {
    if (opt.command == "run") return cmd_run(opt);
    if (opt.command == "triage") return cmd_triage(opt);
    if (opt.command == "replay") {
      return run_replay_command("mcan-fuzz", opt.inputs,
                                opt.cmd.expect_classes, &stop_flag());
    }
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
