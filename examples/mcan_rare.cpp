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
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "rare/campaign.hpp"
#include "scenario/sweep_cli.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

// SIGINT/SIGTERM raise the campaign's cooperative stop flag: the round in
// flight finishes, the journal gets a final snapshot, and the partial
// estimate is printed before exiting 130.
// A lock-free atomic is the one flag type that is both async-signal-safe
// to store ([support.signal]) and safe for the campaign's worker threads
// to poll (volatile sig_atomic_t would be a cross-thread data race).
std::atomic<bool> g_interrupted{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler requires a lock-free stop flag");

void on_signal(int) { g_interrupted.store(true); }

struct Options {
  SweepOptions sweep;
  std::string command;
  RareConfig cfg;
  double expect_within = 0;  ///< gate: p_hat within this factor of expr(4)
  double expect_rel_ci = 0;  ///< gate: relative CI half-width at most this
};

void usage(std::FILE* to) {
  std::fputs(
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
      "shared options (subset of the sweep vocabulary):\n",
      to);
  std::fputs(sweep_flags_help(), to);
  std::fputs(
      "\n"
      "campaign options:\n"
      "  --ber X            network bit error rate (default 1e-5)\n"
      "  --trials N         Monte-Carlo trials (default 20000)\n"
      "  --mode M           naive|importance|splitting (default importance)\n"
      "  --seed S           campaign seed (default 1)\n"
      "  --batch N          trials per merge round (default 256)\n"
      "  --quiet N          per-trial quiescence budget in bits\n"
      "  --journal FILE     checkpoint journal (resume-able)\n"
      "  --checkpoint-every N   trials between snapshots (default 8192)\n"
      "  --window-q X       proposal flip rate inside the window\n"
      "  --tx-hot-q X       proposal rate at the transmitter hotspot bits\n"
      "  --rx-hot-q X       proposal rate at the receiver hotspot bits\n"
      "  --factor N         splitting factor per level (default 4)\n"
      "  --max-particles N  per-trial particle cap (default 256)\n"
      "  --expect-within X  exit 1 unless the estimate is within a factor\n"
      "                     X of expression (4) (CI-aware)\n"
      "  --expect-rel-ci X  exit 1 unless rel. CI half-width <= X\n"
      "  -h, --help         this text\n"
      "\n"
      "The sweep --nodes default is overridden to 32 (the Table-1 bus);\n"
      "--window LO:HI repositions the biased flip window (EOF-relative).\n",
      to);
}

bool parse_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end && *end == '\0' && !s.empty();
}

bool parse_args(int argc, char** argv, Options& opt) {
  opt.sweep.n_nodes = 0;  // sentinel: distinguish "unset" from "--nodes 3"
  std::vector<std::string> rest;
  std::string error;
  if (!parse_sweep_args(argc, argv, opt.sweep, rest, error)) {
    std::fprintf(stderr, "mcan-rare: %s\n", error.c_str());
    return false;
  }
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    auto need_value = [&](const char* flag, std::string& out) -> bool {
      if (i + 1 >= rest.size()) {
        std::fprintf(stderr, "mcan-rare: %s needs a value\n", flag);
        return false;
      }
      out = rest[++i];
      return true;
    };
    auto need_double = [&](const char* flag, double& out) -> bool {
      std::string v;
      if (!need_value(flag, v)) return false;
      if (!parse_double(v, out)) {
        std::fprintf(stderr, "mcan-rare: %s: '%s' is not a number\n", flag,
                     v.c_str());
        return false;
      }
      return true;
    };
    auto need_ll = [&](const char* flag, long long& out) -> bool {
      double d = 0;
      if (!need_double(flag, d)) return false;
      out = static_cast<long long>(d);
      return true;
    };
    long long v = 0;
    if (a == "-h" || a == "--help") {
      usage(stdout);
      // exit in the --help path: before any thread exists.
      std::exit(0);  // NOLINT(concurrency-mt-unsafe)
    } else if (opt.command.empty() && !a.empty() && a[0] != '-') {
      opt.command = a;
    } else if (a == "--ber") {
      if (!need_double("--ber", opt.cfg.ber)) return false;
    } else if (a == "--trials") {
      if (!need_ll("--trials", opt.cfg.trials)) return false;
    } else if (a == "--seed") {
      if (!need_ll("--seed", v)) return false;
      opt.cfg.seed = static_cast<std::uint64_t>(v);
    } else if (a == "--batch") {
      if (!need_ll("--batch", v)) return false;
      opt.cfg.batch = static_cast<int>(v);
    } else if (a == "--quiet") {
      if (!need_ll("--quiet", v)) return false;
      opt.cfg.quiet_budget = v;
    } else if (a == "--journal") {
      if (!need_value("--journal", opt.cfg.journal)) return false;
    } else if (a == "--checkpoint-every") {
      if (!need_ll("--checkpoint-every", opt.cfg.checkpoint_every)) {
        return false;
      }
    } else if (a == "--mode") {
      std::string m;
      if (!need_value("--mode", m)) return false;
      if (m == "naive") {
        opt.cfg.mode = RareMode::kNaive;
      } else if (m == "importance") {
        opt.cfg.mode = RareMode::kImportance;
      } else if (m == "splitting") {
        opt.cfg.mode = RareMode::kSplitting;
      } else {
        std::fprintf(stderr,
                     "mcan-rare: --mode: want naive|importance|splitting\n");
        return false;
      }
    } else if (a == "--window-q") {
      if (!need_double("--window-q", opt.cfg.bias.window_q)) return false;
    } else if (a == "--tx-hot-q") {
      if (!need_double("--tx-hot-q", opt.cfg.bias.tx_hot_q)) return false;
    } else if (a == "--rx-hot-q") {
      if (!need_double("--rx-hot-q", opt.cfg.bias.rx_hot_q)) return false;
    } else if (a == "--factor") {
      if (!need_ll("--factor", v)) return false;
      opt.cfg.split.factor = static_cast<int>(v);
    } else if (a == "--max-particles") {
      if (!need_ll("--max-particles", v)) return false;
      opt.cfg.split.max_particles = static_cast<int>(v);
    } else if (a == "--expect-within") {
      if (!need_double("--expect-within", opt.expect_within)) return false;
    } else if (a == "--expect-rel-ci") {
      if (!need_double("--expect-rel-ci", opt.expect_rel_ci)) return false;
    } else {
      std::fprintf(stderr, "mcan-rare: unknown option %s\n", a.c_str());
      return false;
    }
  }
  if (opt.command.empty()) {
    std::fprintf(stderr, "mcan-rare: no command (see --help)\n");
    return false;
  }
  // Fold the shared sweep vocabulary into the campaign config.
  if (!opt.sweep.protocols.empty()) {
    opt.cfg.protocol = opt.sweep.protocols.front();
  }
  opt.cfg.n_nodes = opt.sweep.n_nodes > 0 ? opt.sweep.n_nodes : 32;
  opt.cfg.jobs = opt.sweep.jobs;
  if (opt.sweep.win_lo) opt.cfg.bias.win_lo_rel = *opt.sweep.win_lo;
  if (opt.sweep.win_hi) opt.cfg.bias.win_hi_rel = *opt.sweep.win_hi;
  return true;
}

void attach_progress(Options& opt) {
  if (!opt.sweep.progress) return;
  opt.cfg.on_progress = [](long long done, long long total) {
    std::fprintf(stderr, "\r  %lld / %lld trials", done, total);
    if (done >= total) std::fputc('\n', stderr);
    std::fflush(stderr);
  };
}

/// Check the --expect-* gates against a finished campaign; returns the
/// process exit code.
int check_gates(const Options& opt, const RareResult& res) {
  int rc = 0;
  const RareEstimate est = res.imo_estimate();
  if (opt.expect_rel_ci > 0) {
    if (est.hits == 0 || est.rel_halfwidth > opt.expect_rel_ci) {
      std::fprintf(stderr,
                   "mcan-rare: FAIL relative CI half-width %.2f > %.2f "
                   "(hits=%lld)\n",
                   est.rel_halfwidth, opt.expect_rel_ci, est.hits);
      rc = 1;
    }
  }
  if (opt.expect_within > 0) {
    const double p4 = res.closed_form_p4();
    // CI-aware: the gate holds if any point of [ci_lo, ci_hi] lies within
    // a factor `expect_within` of the closed form.
    const bool ok = p4 > 0 && est.ci_hi >= p4 / opt.expect_within &&
                    est.ci_lo <= p4 * opt.expect_within;
    if (!ok) {
      std::fprintf(stderr,
                   "mcan-rare: FAIL estimate [%.3e, %.3e] not within %.1fx "
                   "of expression (4) = %.3e\n",
                   est.ci_lo, est.ci_hi, opt.expect_within, p4);
      rc = 1;
    }
  }
  return rc;
}

int write_json(const Options& opt, const RareResult& res) {
  if (opt.sweep.json.empty()) return 0;
  if (!write_text_file(opt.sweep.json, res.to_json())) {
    std::fprintf(stderr, "mcan-rare: cannot write %s\n",
                 opt.sweep.json.c_str());
    return 2;
  }
  std::printf("json written to %s\n", opt.sweep.json.c_str());
  return 0;
}

int cmd_estimate(Options& opt, bool require_journal) {
  if (require_journal && opt.cfg.journal.empty()) {
    std::fprintf(stderr, "mcan-rare: resume needs --journal\n");
    return 2;
  }
  attach_progress(opt);
  opt.cfg.stop = &g_interrupted;
  const RareResult res = run_campaign(opt.cfg);
  std::printf("%s\n", res.summary().c_str());
  if (res.tail_memo.hits + res.tail_memo.misses > 0) {
    std::printf("  tail memo: %lld hits, %lld misses, %zu entries\n",
                res.tail_memo.hits, res.tail_memo.misses,
                res.tail_memo.entries);
  }
  const int rc = write_json(opt, res);
  if (rc) return rc;
  if (g_interrupted.load()) {
    std::fprintf(stderr, "mcan-rare: interrupted after %lld trials%s\n",
                 res.imo.trials(),
                 opt.cfg.journal.empty() ? "" : "; journal flushed");
    return 130;
  }
  return check_gates(opt, res);
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
  if (!opt.sweep.json.empty()) {
    if (!write_text_file(opt.sweep.json, json)) {
      std::fprintf(stderr, "mcan-rare: cannot write %s\n",
                   opt.sweep.json.c_str());
      return 2;
    }
    std::printf("json written to %s\n", opt.sweep.json.c_str());
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
  if (!parse_args(argc, argv, opt)) {
    return 2;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
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
