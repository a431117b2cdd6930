#include "rare/campaign.hpp"

#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/prob_model.hpp"
#include "frame/encoder.hpp"
#include "util/parallel.hpp"
#include "util/text.hpp"

namespace mcan {

namespace {

std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%la", v);
  return buf;
}

constexpr const char* kJournalMagic = "mcan-rare-journal v1";

struct Snapshot {
  long long trials = 0;
  long long timeouts = 0;
  RareAccumulator imo;
  RareAccumulator dup;
};

std::string snapshot_line(const Snapshot& s) {
  std::ostringstream os;
  os << "snap " << s.trials << ' ' << s.timeouts << " | " << s.imo.serialize()
     << " | " << s.dup.serialize();
  return os.str();
}

bool parse_snapshot_line(const std::string& line, Snapshot& out) {
  if (line.rfind("snap ", 0) != 0) return false;
  const std::size_t bar1 = line.find(" | ");
  if (bar1 == std::string::npos) return false;
  const std::size_t bar2 = line.find(" | ", bar1 + 3);
  if (bar2 == std::string::npos) return false;
  if (std::sscanf(line.c_str() + 5, "%lld %lld", &out.trials, &out.timeouts) !=
      2) {
    return false;
  }
  return RareAccumulator::parse(line.substr(bar1 + 3, bar2 - bar1 - 3),
                                out.imo) &&
         RareAccumulator::parse(line.substr(bar2 + 3), out.dup);
}

/// Last valid snapshot line of the journal, after a fingerprint check.
/// Returns false when the file does not exist or holds no snapshot yet;
/// throws on corruption or mismatch.
bool read_journal(const std::string& path, const std::string& fingerprint,
                  std::string& out_line) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("rare: empty journal: " + path);
  }
  const std::string want = std::string(kJournalMagic) + " | " + fingerprint;
  if (line != want) {
    throw std::runtime_error(
        "rare: journal " + path +
        " was written by a different campaign configuration (fingerprint "
        "mismatch); refusing to resume");
  }
  bool any = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Snapshot snap;
    if (!parse_snapshot_line(line, snap)) {
      // A torn final line (interrupted write) is expected; anything after a
      // valid prefix is simply ignored.
      break;
    }
    out_line = line;
    any = true;
  }
  return any;
}

void append_journal_line(const std::string& path, const std::string& line) {
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error("rare: cannot write journal: " + path);
  out << line << '\n';
}

}  // namespace

const char* rare_mode_name(RareMode m) {
  switch (m) {
    case RareMode::kNaive: return "naive";
    case RareMode::kImportance: return "importance";
    case RareMode::kSplitting: return "splitting";
  }
  return "?";
}

void RareConfig::validate() const {
  protocol.validate();
  if (n_nodes < 2) {
    throw std::invalid_argument("rare: n_nodes must be >= 2");
  }
  if (!(ber > 0.0) || ber > 1.0) {
    throw std::invalid_argument("rare: ber must be in (0, 1]");
  }
  if (trials < 1) {
    throw std::invalid_argument("rare: trials must be >= 1");
  }
  if (jobs < 0) {
    throw std::invalid_argument("rare: jobs must be >= 0 (0 = auto)");
  }
  if (batch < 1) {
    throw std::invalid_argument("rare: batch must be >= 1");
  }
  if (quiet_budget < 1) {
    throw std::invalid_argument("rare: quiet_budget must be >= 1");
  }
  if (checkpoint_every < 1) {
    throw std::invalid_argument("rare: checkpoint_every must be >= 1");
  }
  if (!(bitrate > 0.0)) {
    throw std::invalid_argument("rare: bitrate must be positive");
  }
  if (!(load > 0.0) || load > 1.0) {
    throw std::invalid_argument("rare: load must be in (0, 1]");
  }
  if (mode == RareMode::kSplitting) split.validate();
}

std::string RareConfig::fingerprint() const {
  // Everything that changes any trial's outcome for a given index.  Layout
  // knobs (jobs, batch, checkpoint cadence, journal path, trial count) are
  // deliberately excluded: the stream they index into is the same.
  std::ostringstream os;
  os << protocol.name() << " n=" << n_nodes << " ber=" << hexf(ber)
     << " mode=" << rare_mode_name(mode) << " seed=" << seed
     << " quiet=" << quiet_budget;
  if (mode != RareMode::kNaive) {
    os << " win=[" << bias.win_lo_rel << ',' << bias.win_hi_rel << ']'
       << " base=" << hexf(bias.base) << " wq=" << hexf(bias.window_q)
       << " txq=" << hexf(bias.tx_hot_q) << " tx=[";
    for (std::size_t i = 0; i < bias.tx_hot.size(); ++i) {
      os << (i ? "," : "") << bias.tx_hot[i];
    }
    os << "] rxq=" << hexf(bias.rx_hot_q) << " rx=[";
    for (std::size_t i = 0; i < bias.rx_hot.size(); ++i) {
      os << (i ? "," : "") << bias.rx_hot[i];
    }
    os << ']';
  }
  if (mode == RareMode::kSplitting) {
    os << " factor=" << split.factor << " cap=" << split.max_particles;
  }
  return os.str();
}

RareCampaign::RareCampaign(const RareConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  BiasProfile bias = cfg_.bias;
  if (cfg_.mode == RareMode::kNaive) {
    bias = unbiased_profile(cfg_.protocol,
                            cfg_.ber / static_cast<double>(cfg_.n_nodes));
  }
  plan_ = ProbePlan::make(cfg_.protocol, cfg_.n_nodes, cfg_.ber, bias,
                          cfg_.quiet_budget);
  cfg_.bias = plan_.bias;  // resolved defaults, so fingerprint() is stable
  if (cfg_.mode == RareMode::kSplitting && plan_.t_first == 0) {
    throw std::invalid_argument(
        "rare: splitting mode requires a tail-only bias (base == 0)");
  }
  if (plan_.t_first > 0) prefix_.emplace(plan_);
}

bool RareCampaign::finished() const {
  if (cfg_.stop && cfg_.stop->load(std::memory_order_relaxed)) return true;
  return done_ >= cfg_.trials;
}

std::size_t RareCampaign::plan_round() {
  slots_.clear();
  if (finished()) return 0;
  // Plan (sequential): slot i gets the global trial index, nothing else.
  const long long n = std::min<long long>(cfg_.batch, cfg_.trials - done_);
  slots_.assign(static_cast<std::size_t>(n), Slot{});
  for (long long i = 0; i < n; ++i) {
    slots_[static_cast<std::size_t>(i)].index = done_ + i;
  }
  return slots_.size();
}

void RareCampaign::execute_slot(std::size_t i) {
  Slot& s = slots_[i];
  s.x_imo = 0;
  s.x_dup = 0;
  s.timeouts = 0;
  Rng rng(cfg_.seed, static_cast<std::uint64_t>(s.index));
  if (cfg_.mode == RareMode::kSplitting) {
    const SplitTrialResult r = run_split_trial(plan_, *prefix_, cfg_.split, rng);
    s.x_imo = r.x_imo;
    s.x_dup = r.x_dup;
    s.timeouts = r.timeouts;
    return;
  }
  const PrefixState* prefix = prefix_ ? &*prefix_ : nullptr;
  const TrialOutcome out = run_biased_trial(plan_, prefix, rng, &memo_);
  if (out.timeout) {
    s.timeouts = 1;
    return;
  }
  const double w = std::exp(out.llr);
  if (out.imo) s.x_imo = w;
  if (out.dup) s.x_dup = w;
}

void RareCampaign::merge_round() {
  // Merge (sequential, trial order): identical for every worker count.
  for (const Slot& s : slots_) {
    imo_.add(s.x_imo);
    dup_.add(s.x_dup);
    timeouts_ += s.timeouts;
  }
  done_ += static_cast<long long>(slots_.size());
  slots_.clear();
}

std::string RareCampaign::checkpoint_line() const {
  Snapshot snap;
  snap.trials = done_;
  snap.timeouts = timeouts_;
  snap.imo = imo_;
  snap.dup = dup_;
  return snapshot_line(snap);
}

bool RareCampaign::restore_checkpoint_line(const std::string& line) {
  Snapshot snap;
  if (!parse_snapshot_line(line, snap)) return false;
  done_ = snap.trials;
  resumed_from_ = snap.trials;
  timeouts_ = snap.timeouts;
  imo_ = snap.imo;
  dup_ = snap.dup;
  slots_.clear();
  return true;
}

RareResult RareCampaign::result() const {
  RareResult res;
  res.cfg = cfg_;
  res.plan = plan_;
  res.imo = imo_;
  res.dup = dup_;
  res.timeouts = timeouts_;
  res.resumed_from = resumed_from_;
  res.tail_memo = memo_.stats();
  return res;
}

RareResult run_campaign(const RareConfig& cfg0) {
  RareCampaign campaign(cfg0);
  const RareConfig& cfg = campaign.config();

  const std::string fp = cfg.fingerprint();
  if (!cfg.journal.empty()) {
    std::string snap_line;
    if (read_journal(cfg.journal, fp, snap_line)) {
      if (!campaign.restore_checkpoint_line(snap_line)) {
        throw std::runtime_error("rare: corrupt journal snapshot in " +
                                 cfg.journal);
      }
    } else {
      append_journal_line(cfg.journal,
                          std::string(kJournalMagic) + " | " + fp);
    }
  }

  const int jobs = resolve_jobs(cfg.jobs);

  const auto t0 = std::chrono::steady_clock::now();
  long long last_snap = campaign.trials_done();
  for (;;) {
    const std::size_t n = campaign.plan_round();
    if (n == 0) break;
    // Execute (parallel): trials are independent, each on its own stream.
    parallel_for(n, jobs, [&](std::size_t i) { campaign.execute_slot(i); });
    campaign.merge_round();
    const long long done = campaign.trials_done();
    if (!cfg.journal.empty() &&
        (done - last_snap >= cfg.checkpoint_every || done >= cfg.trials)) {
      append_journal_line(cfg.journal, campaign.checkpoint_line());
      last_snap = done;
    }
    if (cfg.on_progress) cfg.on_progress(done, cfg.trials);
  }
  // A cooperative stop flushes whatever the periodic cadence had not yet
  // written, so an interrupted campaign resumes from its last full round.
  if (!cfg.journal.empty() && campaign.trials_done() > last_snap) {
    append_journal_line(cfg.journal, campaign.checkpoint_line());
  }

  RareResult res = campaign.result();
  res.jobs_used = jobs;
  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

RareResult load_campaign(const RareConfig& cfg0) {
  RareCampaign campaign(cfg0);
  if (campaign.config().journal.empty()) {
    throw std::runtime_error("rare: load_campaign needs a journal path");
  }
  std::string snap_line;
  if (!read_journal(campaign.config().journal,
                    campaign.config().fingerprint(), snap_line)) {
    throw std::runtime_error("rare: no journal at " +
                             campaign.config().journal);
  }
  if (!campaign.restore_checkpoint_line(snap_line)) {
    throw std::runtime_error("rare: corrupt journal snapshot in " +
                             campaign.config().journal);
  }
  return campaign.result();
}

double RareResult::closed_form_p4() const {
  ModelParams mp;
  mp.n_nodes = cfg.n_nodes;
  mp.ber = cfg.ber;
  mp.frame_bits = wire_length(plan.frame, cfg.protocol.eof_bits());
  mp.bitrate = cfg.bitrate;
  mp.load = cfg.load;
  return p_new_scenario_per_frame(mp);
}

double RareResult::frames_per_hour() const {
  ModelParams mp;
  mp.n_nodes = cfg.n_nodes;
  mp.ber = cfg.ber;
  mp.frame_bits = wire_length(plan.frame, cfg.protocol.eof_bits());
  mp.bitrate = cfg.bitrate;
  mp.load = cfg.load;
  return mp.frames_per_hour();
}

double RareResult::variance_reduction() const {
  const RareEstimate est = imo.estimate();
  const double var = imo.moments().variance();
  if (!(var > 0.0) || est.p_hat <= 0.0) return 0.0;
  return est.p_hat * (1.0 - est.p_hat) / var;
}

double RareResult::naive_trials_equivalent() const {
  const RareEstimate est = imo.estimate();
  if (!(est.std_err > 0.0) || est.p_hat <= 0.0) return 0.0;
  return est.p_hat * (1.0 - est.p_hat) / (est.std_err * est.std_err);
}

std::string RareResult::summary() const {
  const RareEstimate est = imo.estimate();
  const double p4 = closed_form_p4();
  std::ostringstream os;
  os << "mode=" << rare_mode_name(cfg.mode) << " protocol="
     << cfg.protocol.name() << " n=" << cfg.n_nodes << " ber=" << sci(cfg.ber)
     << " trials=" << imo.trials();
  if (resumed_from > 0) os << " (resumed from " << resumed_from << ")";
  os << "\n  P{IMO}/frame  = " << est.to_string();
  os << "\n  expr(4)       = " << sci(p4)
     << (p4 > 0 && est.p_hat > 0
             ? "  (ratio " + sci(est.p_hat / p4, 2) + ")"
             : "");
  os << "\n  IMO/hour      = " << sci(est.p_hat * frames_per_hour())
     << "  (closed form " << sci(p4 * frames_per_hour()) << ")";
  const RareEstimate dup_est = dup.estimate();
  os << "\n  P{dup}/frame  = " << dup_est.to_string();
  if (cfg.mode != RareMode::kNaive) {
    os << "\n  variance reduction vs naive = " << sci(variance_reduction(), 2)
       << "  (naive trials for equal error: "
       << sci(naive_trials_equivalent(), 2) << ")";
  }
  if (timeouts > 0) os << "\n  timeouts = " << timeouts;
  return os.str();
}

std::string RareResult::to_json() const {
  const RareEstimate est = imo.estimate();
  const RareEstimate dup_est = dup.estimate();
  const double p4 = closed_form_p4();
  std::ostringstream os;
  os << "{\n";
  os << "  \"protocol\": \"" << json_escape(cfg.protocol.name()) << "\",\n";
  os << "  \"mode\": \"" << rare_mode_name(cfg.mode) << "\",\n";
  os << "  \"n_nodes\": " << cfg.n_nodes << ",\n";
  os << "  \"ber\": " << json_number(cfg.ber) << ",\n";
  os << "  \"seed\": " << cfg.seed << ",\n";
  os << "  \"trials\": " << imo.trials() << ",\n";
  os << "  \"frame_bits\": " << wire_length(plan.frame, cfg.protocol.eof_bits())
     << ",\n";
  os << "  \"imo\": {\"p_hat\": " << json_number(est.p_hat)
     << ", \"std_err\": " << json_number(est.std_err)
     << ", \"ci_lo\": " << json_number(est.ci_lo)
     << ", \"ci_hi\": " << json_number(est.ci_hi)
     << ", \"rel_halfwidth\": " << json_number(est.rel_halfwidth)
     << ", \"ess\": " << json_number(est.ess) << ", \"hits\": " << est.hits
     << "},\n";
  os << "  \"dup\": {\"p_hat\": " << json_number(dup_est.p_hat)
     << ", \"std_err\": " << json_number(dup_est.std_err)
     << ", \"hits\": " << dup_est.hits << "},\n";
  os << "  \"closed_form_p4\": " << json_number(p4) << ",\n";
  os << "  \"imo_per_hour\": " << json_number(est.p_hat * frames_per_hour())
     << ",\n";
  os << "  \"closed_form_per_hour\": " << json_number(p4 * frames_per_hour())
     << ",\n";
  os << "  \"variance_reduction\": " << json_number(variance_reduction())
     << ",\n";
  os << "  \"naive_trials_equivalent\": "
     << json_number(naive_trials_equivalent()) << ",\n";
  os << "  \"timeouts\": " << timeouts << ",\n";
  os << "  \"seconds\": " << json_number(seconds) << "\n";
  os << "}\n";
  return os.str();
}

const OptionTable<RareConfig>& rare_options() {
  static const OptionTable<RareConfig> table = [] {
    OptionTable<RareConfig> t;
    t.token({"--protocol", "-p", "protocol", "P",
             "protocol: can|minor|major|major:<m>"},
            &RareConfig::protocol, parse_protocol_arg, protocol_token)
        .integer({"--nodes", "-n", "nodes", "N", "bus size"},
                 &RareConfig::n_nodes, 2, 256)
        .real({"--ber", "", "ber", "X", "network bit error rate"},
              &RareConfig::ber, 0, 1)
        .choice({"--mode", "", "mode", "M", "naive|importance|splitting"},
                &RareConfig::mode, {"naive", "importance", "splitting"})
        .integer({"--seed", "", "seed", "S", "campaign seed"},
                 &RareConfig::seed, 0, LLONG_MAX)
        .integer({"--trials", "", "trials", "N", "Monte-Carlo trials"},
                 &RareConfig::trials, 1, LLONG_MAX)
        .integer({"--batch", "", "batch", "N", "trials per merge round"},
                 &RareConfig::batch, 1, 1000000)
        .integer({"--quiet", "", "", "N",
                  "per-trial quiescence budget in bits"},
                 &RareConfig::quiet_budget, 1, LLONG_MAX)
        .text({"--journal", "", "", "FILE", "checkpoint journal (resumable)"},
              &RareConfig::journal)
        .integer({"--checkpoint-every", "", "", "N",
                  "trials between snapshots"},
                 &RareConfig::checkpoint_every, 1, LLONG_MAX)
        .real({"--window-q", "", "", "X",
               "proposal flip rate inside the window"},
              [](auto& c) -> auto& { return c.bias.window_q; }, 0, 1)
        .real({"--tx-hot-q", "", "", "X",
               "proposal rate at the transmitter hotspot bits"},
              [](auto& c) -> auto& { return c.bias.tx_hot_q; }, 0, 1)
        .real({"--rx-hot-q", "", "", "X",
               "proposal rate at the receiver hotspot bits"},
              [](auto& c) -> auto& { return c.bias.rx_hot_q; }, 0, 1)
        .integer({"--factor", "", "", "N", "splitting factor per level"},
                 [](auto& c) -> auto& { return c.split.factor; }, 1, 1000)
        .integer({"--max-particles", "", "", "N", "per-trial particle cap"},
                 [](auto& c) -> auto& { return c.split.max_particles; }, 1,
                 1000000);
    return t;
  }();
  return table;
}

const OptionTable<RareGate>& rare_gate_options() {
  static const OptionTable<RareGate> table = [] {
    OptionTable<RareGate> t;
    t.real({"--expect-within", "", "", "X",
            "exit 1 unless the estimate is within a factor\n"
            "X of expression (4), CI-aware; 0 = off"},
           &RareGate::within, 0, 1e300)
        .real({"--expect-rel-ci", "", "", "X",
               "exit 1 unless rel. CI half-width <= X; 0 = off"},
              &RareGate::rel_ci, 0, 1e300);
    return t;
  }();
  return table;
}

int check_rare_gate(const char* tool, const RareGate& gate,
                    const RareEstimate& imo, double p4) {
  int rc = 0;
  if (gate.rel_ci > 0 && (imo.hits == 0 || imo.rel_halfwidth > gate.rel_ci)) {
    std::fprintf(stderr,
                 "%s: FAIL relative CI half-width %.2f > %.2f (hits=%lld)\n",
                 tool, imo.rel_halfwidth, gate.rel_ci, imo.hits);
    rc = 1;
  }
  if (gate.within > 0 &&
      !(p4 > 0 && imo.ci_hi >= p4 / gate.within &&
        imo.ci_lo <= p4 * gate.within)) {
    std::fprintf(stderr,
                 "%s: FAIL estimate [%.3e, %.3e] not within %.1fx of "
                 "expression (4) = %.3e\n",
                 tool, imo.ci_lo, imo.ci_hi, gate.within, p4);
    rc = 1;
  }
  return rc;
}

bool rare_gate_inputs(const Json& result, RareEstimate& imo, double& p4) {
  const Json* est = result.find("imo");
  if (est == nullptr || !est->is_object()) return false;
  const auto number = [](const Json* j) { return j ? j->as_double() : 0.0; };
  imo.ci_lo = number(est->find("ci_lo"));
  imo.ci_hi = number(est->find("ci_hi"));
  imo.rel_halfwidth = number(est->find("rel_halfwidth"));
  imo.hits = est->find("hits") ? est->find("hits")->as_int() : 0;
  p4 = number(result.find("closed_form_p4"));
  return true;
}

}  // namespace mcan
