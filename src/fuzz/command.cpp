#include "fuzz/command.hpp"

#include <cstdio>
#include <filesystem>

#include "util/text.hpp"

namespace mcan {

const OptionTable<FuzzCommand>& fuzz_command_options() {
  static const OptionTable<FuzzCommand> table = [] {
    OptionTable<FuzzCommand> t;
    t.text({"--corpus", "", "", "DIR", "seed from + save the corpus here"},
           &FuzzCommand::corpus_dir)
        .text({"--findings", "", "", "DIR", "write .scn reproducers here"},
              &FuzzCommand::findings_dir)
        .text({"--stats-json", "", "", "FILE", "write the results as JSON"},
              &FuzzCommand::stats_json);
    return t;
  }();
  return table;
}

int export_triaged(const char* tool, const std::vector<TriagedFinding>& triaged,
                   const std::string& dir, const std::string& campaign) {
  const std::vector<std::string> unwritten =
      write_findings(triaged, dir, campaign);
  for (const std::string& path : unwritten) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
  }
  bool replay_failed = false;
  for (const TriagedFinding& t : triaged) {
    std::printf("  %s: %s/%s (%d raw, exec %llu)%s\n", fuzz_class_name(t.cls),
                dir.c_str(), finding_file_name(t).c_str(), t.raw_count,
                static_cast<unsigned long long>(t.exec_index),
                t.replay_ok ? " replay verified" : " REPLAY FAILED");
    replay_failed = replay_failed || !t.replay_ok;
  }
  return !unwritten.empty() ? 2 : replay_failed ? 1 : 0;
}

int run_fuzz_command(const char* tool, FuzzJob job, const FuzzCommand& cmd) {
  job.resolve();
  FuzzConfig& cfg = job.cfg;
  if (cmd.progress) {
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
  if (!cmd.corpus_dir.empty() &&
      std::filesystem::is_directory(cmd.corpus_dir)) {
    for (const std::string& f : scenario_files({cmd.corpus_dir})) {
      seeds.push_back(load_scenario_file(f));
    }
    std::printf("seeded %zu corpus entries from %s\n", seeds.size(),
                cmd.corpus_dir.c_str());
  }

  const FuzzResult res = run_fuzz(cfg, seeds);
  if (cmd.progress) std::fprintf(stderr, "\n");
  const std::string proto = cfg.protocol.name();
  std::printf(
      "%s nodes=%d seed=%llu: %llu execs, %llu admitted (corpus %d after"
      " %llu evictions), %d signature bits (%d FSM transitions),"
      " %llu findings [%s]\n",
      proto.c_str(), cfg.n_nodes, static_cast<unsigned long long>(cfg.seed),
      static_cast<unsigned long long>(res.stats.execs),
      static_cast<unsigned long long>(res.stats.admitted),
      res.stats.corpus_size,
      static_cast<unsigned long long>(res.stats.evicted),
      res.stats.signature_bits, res.stats.fsm_transitions,
      static_cast<unsigned long long>(res.stats.findings),
      fuzz_classes_to_string(res.stats.classes_seen).c_str());

  int rc = 0;
  if (!res.findings.empty()) {
    const std::string campaign =
        std::string(fuzz_kind_name(job.kind)) + " campaign: " + proto +
        ", seed " + std::to_string(cfg.seed) + ", " +
        std::to_string(res.stats.execs) + " execs";
    rc = export_triaged(
        tool,
        triage_findings(res.findings,
                        job.kind == FuzzKind::Attack ? "attack-" : "fuzz-"),
        cmd.findings_dir, campaign);
  }
  if (!cmd.corpus_dir.empty()) {
    const int n = save_corpus(res.corpus, cmd.corpus_dir);
    if (n < static_cast<int>(res.corpus.size())) {
      std::fprintf(stderr, "%s: cannot write the corpus to %s\n", tool,
                   cmd.corpus_dir.c_str());
      rc = 2;
    } else {
      std::printf("corpus: %d entries written to %s\n", n,
                  cmd.corpus_dir.c_str());
    }
  }
  if (!cmd.stats_json.empty() &&
      !write_text_file(tool, cmd.stats_json,
                       fuzz_stats_json(res.stats, cfg.protocol, cfg.n_nodes,
                                       cfg.seed))) {
    rc = 2;
  }
  if (rc == 2) return 2;
  if (cfg.stop && cfg.stop->load()) {
    std::fprintf(stderr, "%s: interrupted after %llu execs; results flushed\n",
                 tool, static_cast<unsigned long long>(res.stats.execs));
    return 130;
  }
  if (rc) return rc;
  return cmd.expect_classes
             ? check_class_gate(tool, *cmd.expect_classes,
                                res.stats.classes_seen)
             : 0;
}

int run_replay_command(const char* tool, const std::vector<std::string>& inputs,
                       std::optional<std::uint32_t> want,
                       const std::atomic<bool>* stop) {
  std::uint32_t found = 0;
  for (const std::string& path : scenario_files(inputs)) {
    if (stop && stop->load()) return 130;
    const FuzzVerdict v = run_fuzz_case(load_scenario_file(path));
    found |= v.classes;
    std::printf("%s: %s (%d signature bits)\n", path.c_str(),
                fuzz_classes_to_string(v.classes).c_str(), v.sig.popcount());
    if (v.violation()) std::printf("  %s\n", v.detail.c_str());
  }
  return want ? check_class_gate(tool, *want, found) : 0;
}

}  // namespace mcan
