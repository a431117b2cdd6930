// mcan-rare: rare-event Monte-Carlo campaigns over the bit-level bus.
//
// Estimates the paper's Table-1 inconsistency probabilities (expression
// (4): IMO per frame) *empirically*, by simulating the probe broadcast on
// a full N-node bus and counting inconsistent outcomes — with importance
// sampling and multilevel splitting so that probabilities of 1e-12 and
// below are measurable in seconds instead of CPU-centuries.
//
//     mcan-rare estimate --ber 1e-5 --trials 20000       # importance mode
//     mcan-rare estimate --mode splitting --ber 1e-6
//     mcan-rare estimate --journal t1.jnl --trials 100000  # checkpointed
//     mcan-rare resume   --journal t1.jnl --trials 200000  # keep going
//     mcan-rare compare  --ber 1e-2 --trials 50000       # all three modes
//     mcan-rare json     --journal t1.jnl               # reprint as JSON
//
// Exit status: 0 = ran and every --expect-* gate held, 1 = a gate failed,
// 2 = usage error or unusable configuration, 130 = interrupted
// (SIGINT/SIGTERM; the --journal checkpoint is still flushed, so a rerun
// with the same journal resumes).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "rare/campaign.hpp"
#include "sim/kernel.hpp"
#include "util/stop.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

struct Options {
  RareConfig cfg;
  RunOptions run;
  RareGate gate;
  std::string command;
};

BoundOptions bind_options(Options& opt) {
  return join({rare_options().bind(opt.cfg),
               run_options().bind(opt.run, {"--jobs", "--window", "--json",
                                            "--no-progress"}),
               {kernel_option()}, rare_gate_options().bind(opt.gate)});
}

constexpr const char* kUsage =
    "usage: mcan-rare <command> [options]\n"
    "\n"
    "Rare-event Monte-Carlo estimation of the paper's Table-1\n"
    "inconsistency probabilities, measured on the executable bus.\n"
    "\n"
    "commands:\n"
    "  estimate   run a campaign and print the estimate (resumes the\n"
    "             --journal if it already has snapshots)\n"
    "  resume     like estimate, but requires an existing journal\n"
    "  compare    run naive, importance and splitting campaigns on the\n"
    "             same configuration and cross-tabulate with expr. (4)\n"
    "  json       reprint a journaled campaign as JSON (no simulation)\n"
    "\n"
    "--window LO:HI repositions the biased flip window.\n";

void attach_progress(Options& opt) {
  if (!opt.run.progress) return;
  opt.cfg.on_progress = [](long long done, long long total) {
    std::fprintf(stderr, "\r  %lld / %lld trials", done, total);
    if (done >= total) std::fputc('\n', stderr);
    std::fflush(stderr);
  };
}

int write_json(const Options& opt, const RareResult& res) {
  if (opt.run.json.empty()) return 0;
  if (!write_text_file("mcan-rare", opt.run.json, res.to_json())) return 2;
  std::printf("json written to %s\n", opt.run.json.c_str());
  return 0;
}

int cmd_estimate(Options& opt, bool require_journal) {
  if (require_journal && opt.cfg.journal.empty()) {
    std::fprintf(stderr, "mcan-rare: resume needs --journal\n");
    return 2;
  }
  attach_progress(opt);
  opt.cfg.stop = &stop_flag();
  const RareResult res = run_campaign(opt.cfg);
  std::printf("%s\n", res.summary().c_str());
  if (res.tail_memo.hits + res.tail_memo.misses > 0) {
    std::printf("  tail memo: %lld hits, %lld misses, %zu entries\n",
                res.tail_memo.hits, res.tail_memo.misses,
                res.tail_memo.entries);
  }
  const int rc = write_json(opt, res);
  if (rc) return rc;
  if (stop_flag().load()) {
    std::fprintf(stderr, "mcan-rare: interrupted after %lld trials%s\n",
                 res.imo.trials(),
                 opt.cfg.journal.empty() ? "" : "; journal flushed");
    return 130;
  }
  return check_rare_gate("mcan-rare", opt.gate, res.imo_estimate(),
                         res.closed_form_p4());
}

int cmd_compare(Options& opt) {
  attach_progress(opt);
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"mode", "p_hat", "ci95", "rel_ci", "hits", "ess", "vrf"});
  std::string json = "{\"modes\":[";
  double p4 = 0;
  const RareMode modes[] = {RareMode::kNaive, RareMode::kImportance,
                            RareMode::kSplitting};
  bool first = true;
  for (const RareMode m : modes) {
    RareConfig cfg = opt.cfg;
    cfg.mode = m;
    cfg.journal.clear();  // compare never journals: three distinct streams
    std::fprintf(stderr, "%s:\n", rare_mode_name(m));
    const RareResult res = run_campaign(cfg);
    p4 = res.closed_form_p4();
    const RareEstimate est = res.imo_estimate();
    rows.push_back({rare_mode_name(m), sci(est.p_hat),
                    "[" + sci(est.ci_lo) + ", " + sci(est.ci_hi) + "]",
                    sci(est.rel_halfwidth, 2), std::to_string(est.hits),
                    sci(est.ess, 2), sci(res.variance_reduction(), 2)});
    if (!first) json += ",";
    first = false;
    json += res.to_json();
  }
  json += "],\"closed_form_p4\":" + sci(p4, 12) + "}\n";
  rows.push_back({"expr(4)", sci(p4), "-", "-", "-", "-", "-"});
  std::printf("%s", render_table(rows).c_str());
  if (!opt.run.json.empty()) {
    if (!write_text_file("mcan-rare", opt.run.json, json)) return 2;
    std::printf("json written to %s\n", opt.run.json.c_str());
  }
  return 0;
}

int cmd_json(const Options& opt) {
  if (opt.cfg.journal.empty()) {
    std::fprintf(stderr, "mcan-rare: json needs --journal\n");
    return 2;
  }
  const RareResult res = load_campaign(opt.cfg);
  std::printf("%s", res.to_json().c_str());
  return write_json(opt, res);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;
  if (const int rc = parse_flags("mcan-rare", argc, argv, bind_options(opt),
                                 kUsage, &positional);
      rc >= 0) {
    return rc;
  }
  if (positional.size() != 1) {
    std::fprintf(stderr, "mcan-rare: want one command (see --help)\n");
    return 2;
  }
  opt.command = positional.front();
  opt.cfg.jobs = opt.run.jobs;
  if (opt.run.window) {
    opt.cfg.bias.win_lo_rel = opt.run.window->first;
    opt.cfg.bias.win_hi_rel = opt.run.window->second;
  }
  install_stop_handlers();
  try {
    if (opt.command == "estimate") return cmd_estimate(opt, false);
    if (opt.command == "resume") return cmd_estimate(opt, true);
    if (opt.command == "compare") return cmd_compare(opt);
    if (opt.command == "json") return cmd_json(opt);
    std::fprintf(stderr, "mcan-rare: unknown command '%s' (see --help)\n",
                 opt.command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcan-rare: %s\n", e.what());
    return 2;
  }
}
