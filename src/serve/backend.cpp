#include "serve/backend.hpp"

#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "fuzz/engine.hpp"
#include "rare/campaign.hpp"
#include "scenario/model_check.hpp"

namespace mcan {

namespace {

/// Apply `spec` (minus its "backend" member) to `obj` through the engine's
/// option table: unknown keys, wrong types and out-of-range values are
/// errors naming the key.
template <class T>
void decode_spec(const OptionTable<T>& table, const Json& spec, T& obj,
                 const std::string& kind) {
  if (std::string err = table.decode(spec, obj, "backend"); !err.empty()) {
    throw std::invalid_argument(kind + " spec: " + err);
  }
}

// --- fuzz / rsm -----------------------------------------------------------

/// One backend, three kinds: "fuzz" drives the bare wire-level campaign;
/// "rsm" attaches a consensus workload (FuzzConfig::workload) so every
/// execution runs the replicated state machine and the four consensus
/// violation classes are live; "attack" opens the adversarial genome space
/// (attack directives: glitch/busoff/spoof attackers, fuzz/mutate.hpp
/// bounds) on top of the wire-level campaign.  Checkpoint/restore is
/// shared — the corpus snapshot round-trips through .scn text, and both
/// the rsm and attack directives are part of that text.
class FuzzServeBackend final : public CampaignBackend {
 public:
  explicit FuzzServeBackend(FuzzJob job) : job_(std::move(job)) {
    campaign_.emplace(job_.cfg);
  }

  [[nodiscard]] const char* kind() const override {
    return fuzz_kind_name(job_.kind);
  }

  [[nodiscard]] std::string fingerprint() const override {
    return job_.fingerprint();
  }

  [[nodiscard]] std::size_t plan_round() override {
    return campaign_->plan_round();
  }
  void execute_slot(std::size_t i) override { campaign_->execute_slot(i); }
  void merge_round() override { campaign_->merge_round(); }
  [[nodiscard]] bool finished() const override {
    return campaign_->finished();
  }

  [[nodiscard]] std::uint64_t units_done() const override {
    return campaign_->exec_index();
  }
  [[nodiscard]] std::uint64_t units_total() const override {
    return job_.cfg.max_execs;
  }

  [[nodiscard]] std::string checkpoint() const override {
    Json j = Json::object();
    j.set("exec_index",
          Json(static_cast<long long>(campaign_->exec_index())));
    j.set("next_minimize",
          Json(static_cast<long long>(campaign_->next_minimize())));
    const FuzzStats& st = campaign_->stats();
    Json stats = Json::object();
    stats.set("execs", Json(static_cast<long long>(st.execs)));
    stats.set("admitted", Json(static_cast<long long>(st.admitted)));
    stats.set("findings", Json(static_cast<long long>(st.findings)));
    stats.set("evicted", Json(static_cast<long long>(st.evicted)));
    stats.set("classes", Json(static_cast<long long>(st.classes_seen)));
    j.set("stats", std::move(stats));
    Json corpus = Json::array();
    for (const CorpusEntry& e : campaign_->corpus().entries()) {
      Json entry = Json::object();
      entry.set("scn", Json(write_scenario(e.spec)));
      entry.set("sig", Json(e.sig.to_hex()));
      entry.set("exec", Json(static_cast<long long>(e.exec_index)));
      entry.set("energy", Json(static_cast<long long>(e.energy)));
      corpus.push(std::move(entry));
    }
    j.set("corpus", std::move(corpus));
    j.set("accumulated", Json(campaign_->corpus().accumulated().to_hex()));
    Json findings = Json::array();
    for (const FuzzFinding& f : campaign_->findings()) {
      Json finding = Json::object();
      finding.set("scn", Json(write_scenario(f.spec)));
      finding.set("classes",
                  Json(static_cast<long long>(f.verdict.classes)));
      finding.set("sig", Json(f.verdict.sig.to_hex()));
      finding.set("detail", Json(f.verdict.detail));
      finding.set("exec", Json(static_cast<long long>(f.exec_index)));
      findings.push(std::move(finding));
    }
    j.set("findings", std::move(findings));
    return j.dump();
  }

  [[nodiscard]] bool restore(const std::string& payload) override {
    Json j;
    std::string err;
    if (!Json::parse(payload, j, err) || !j.is_object()) return false;
    const Json* stats = j.find("stats");
    const Json* corpus = j.find("corpus");
    const Json* acc = j.find("accumulated");
    const Json* findings = j.find("findings");
    if (!stats || !stats->is_object() || !corpus || !corpus->is_array() ||
        !acc || !acc->is_string() || !findings || !findings->is_array()) {
      return false;
    }
    // Snapshot fields are our own checkpoint() bytes, not a job spec.
    const auto num = [](const Json& o, const char* key, long long dflt = 0) {
      const Json* v = o.find(key);
      return v ? v->as_int(dflt) : dflt;
    };
    FuzzStats st;
    st.execs = static_cast<std::uint64_t>(num(*stats, "execs"));
    st.admitted = static_cast<std::uint64_t>(num(*stats, "admitted"));
    st.findings = static_cast<std::uint64_t>(num(*stats, "findings"));
    st.evicted = static_cast<std::uint64_t>(num(*stats, "evicted"));
    st.classes_seen =
        static_cast<std::uint32_t>(num(*stats, "classes"));
    Signature accumulated;
    if (!Signature::from_hex(acc->as_string(), accumulated)) return false;
    try {
      std::vector<CorpusEntry> entries;
      for (const Json& e : corpus->items()) {
        const Json* scn = e.find("scn");
        const Json* sig = e.find("sig");
        if (!scn || !scn->is_string() || !sig || !sig->is_string()) {
          return false;
        }
        CorpusEntry entry;
        entry.spec = parse_scenario(scn->as_string());
        if (!Signature::from_hex(sig->as_string(), entry.sig)) return false;
        entry.exec_index = static_cast<std::uint64_t>(num(e, "exec"));
        entry.energy = static_cast<int>(num(e, "energy", 1));
        entries.push_back(std::move(entry));
      }
      std::vector<FuzzFinding> found;
      for (const Json& f : findings->items()) {
        const Json* scn = f.find("scn");
        const Json* sig = f.find("sig");
        if (!scn || !scn->is_string() || !sig || !sig->is_string()) {
          return false;
        }
        FuzzFinding finding;
        finding.spec = parse_scenario(scn->as_string());
        finding.verdict.classes =
            static_cast<std::uint32_t>(num(f, "classes"));
        if (!Signature::from_hex(sig->as_string(), finding.verdict.sig)) {
          return false;
        }
        const Json* detail = f.find("detail");
        if (detail && detail->is_string()) {
          finding.verdict.detail = detail->as_string();
        }
        finding.exec_index = static_cast<std::uint64_t>(num(f, "exec"));
        found.push_back(std::move(finding));
      }
      campaign_->restore_state(
          static_cast<std::uint64_t>(num(j, "exec_index")),
          static_cast<std::uint64_t>(num(j, "next_minimize")), st,
          std::move(entries), accumulated, std::move(found));
    } catch (const std::exception&) {
      return false;  // malformed .scn text inside the snapshot
    }
    return true;
  }

  [[nodiscard]] std::string result_json() override {
    FuzzResult res = campaign_->take_result();
    res.stats.elapsed_s = 0;  // deterministic result bytes; see backend.hpp
    return fuzz_stats_json(res.stats, job_.cfg.protocol, job_.cfg.n_nodes,
                           job_.cfg.seed);
  }

 private:
  FuzzJob job_;
  std::optional<FuzzCampaign> campaign_;
};

// --- rare -----------------------------------------------------------------

class RareServeBackend final : public CampaignBackend {
 public:
  explicit RareServeBackend(const RareConfig& cfg) {
    campaign_.emplace(cfg);  // validates, resolves bias
  }

  [[nodiscard]] const char* kind() const override { return "rare"; }

  [[nodiscard]] std::string fingerprint() const override {
    const RareConfig& cfg = campaign_->config();
    Json c = Json::object();
    c.set("backend", Json("rare"));
    // The engine's own fingerprint covers everything that determines the
    // trial stream (bias profile included).
    c.set("engine", Json(cfg.fingerprint()));
    c.set("batch", Json(static_cast<long long>(cfg.batch)));
    return c.dump();
  }

  [[nodiscard]] std::size_t plan_round() override {
    return campaign_->plan_round();
  }
  void execute_slot(std::size_t i) override { campaign_->execute_slot(i); }
  void merge_round() override { campaign_->merge_round(); }
  [[nodiscard]] bool finished() const override {
    return campaign_->finished();
  }

  [[nodiscard]] std::uint64_t units_done() const override {
    return static_cast<std::uint64_t>(campaign_->trials_done());
  }
  [[nodiscard]] std::uint64_t units_total() const override {
    return static_cast<std::uint64_t>(campaign_->config().trials);
  }

  [[nodiscard]] std::string checkpoint() const override {
    return campaign_->checkpoint_line();
  }
  [[nodiscard]] bool restore(const std::string& payload) override {
    return campaign_->restore_checkpoint_line(payload);
  }

  [[nodiscard]] std::string result_json() override {
    RareResult res = campaign_->result();
    res.seconds = 0;  // deterministic result bytes; see backend.hpp
    return res.to_json();
  }

 private:
  std::optional<RareCampaign> campaign_;
};

// --- check ----------------------------------------------------------------

class CheckServeBackend final : public CampaignBackend {
 public:
  explicit CheckServeBackend(CheckSweep sweep) : sweep_(std::move(sweep)) {
    sweep_.protocols = sweep_.protocol_set();  // the fingerprint lists them
    for (const ProtocolParams& p : sweep_.protocols) {
      for (int k = 1; k <= sweep_.max_k; ++k) {
        unit_config(p, k).validate();  // throw before any work
        units_.push_back({p, k});
      }
    }
    slots_.resize(units_.size());
  }

  [[nodiscard]] const char* kind() const override { return "check"; }

  [[nodiscard]] std::string fingerprint() const override {
    Json head = Json::object();
    head.set("backend", Json("check"));
    return check_sweep_options().render(sweep_, std::move(head)).dump();
  }

  [[nodiscard]] std::size_t plan_round() override {
    if (planned_ || finished()) return 0;
    planned_ = true;
    return units_.size();
  }

  void execute_slot(std::size_t i) override {
    const ModelCheckResult r =
        run_model_check(unit_config(units_[i].protocol, units_[i].k));
    slots_[i] = {r.cases, r.imo, r.double_rx, r.total_loss, r.timeouts,
                 r.complete};
  }

  void merge_round() override { done_ = units_.size(); }

  [[nodiscard]] bool finished() const override {
    return done_ == units_.size();
  }

  [[nodiscard]] std::uint64_t units_done() const override { return done_; }
  [[nodiscard]] std::uint64_t units_total() const override {
    return units_.size();
  }
  [[nodiscard]] std::size_t shard_size_hint() const override { return 1; }

  // Sweep units are coarse and merge exactly once, so there is no
  // mid-campaign snapshot: a killed check job restarts from scratch (and
  // still produces identical bytes — the sweep itself is deterministic).
  [[nodiscard]] std::string checkpoint() const override { return {}; }
  [[nodiscard]] bool restore(const std::string& payload) override {
    return payload.empty();
  }

  [[nodiscard]] std::string result_json() override {
    Json j = Json::object();
    j.set("backend", Json("check"));
    Json out = Json::array();
    for (std::size_t i = 0; i < units_.size(); ++i) {
      Json u = Json::object();
      u.set("protocol", Json(units_[i].protocol.name()));
      u.set("k", Json(static_cast<long long>(units_[i].k)));
      u.set("cases", Json(slots_[i].cases));
      u.set("imo", Json(slots_[i].imo));
      u.set("double", Json(slots_[i].double_rx));
      u.set("loss", Json(slots_[i].loss));
      u.set("timeouts", Json(slots_[i].timeouts));
      u.set("complete", Json(slots_[i].complete));
      out.push(std::move(u));
    }
    j.set("units", std::move(out));
    return j.dump() + "\n";
  }

 private:
  struct Unit {
    ProtocolParams protocol;
    int k = 1;
  };
  struct Outcome {
    long long cases = 0;
    long long imo = 0;
    long long double_rx = 0;
    long long loss = 0;
    long long timeouts = 0;
    bool complete = true;
  };

  [[nodiscard]] ModelCheckConfig unit_config(const ProtocolParams& p,
                                             int k) const {
    ModelCheckConfig cfg = sweep_.unit(p, k);
    cfg.jobs = 1;  // the serve worker fleet is the parallelism
    return cfg;
  }

  CheckSweep sweep_;
  std::vector<Unit> units_;
  std::vector<Outcome> slots_;
  std::size_t done_ = 0;
  bool planned_ = false;
};

}  // namespace

std::unique_ptr<CampaignBackend> make_backend(const Json& spec,
                                              std::string& error) {
  if (!spec.is_object()) {
    error = "job spec must be a JSON object";
    return nullptr;
  }
  const Json* backend = spec.find("backend");
  const std::string kind =
      backend && backend->is_string() ? backend->as_string() : "";
  try {
    for (const FuzzKind k : {FuzzKind::Fuzz, FuzzKind::Rsm, FuzzKind::Attack}) {
      if (kind != fuzz_kind_name(k)) continue;
      FuzzJob job(k);
      decode_spec(fuzz_options(k), spec, job, kind);
      job.resolve();
      return std::make_unique<FuzzServeBackend>(std::move(job));
    }
    if (kind == "rare") {
      RareConfig cfg;
      decode_spec(rare_options(), spec, cfg, kind);
      return std::make_unique<RareServeBackend>(cfg);
    }
    if (kind == "check") {
      CheckSweep sweep;
      decode_spec(check_sweep_options(), spec, sweep, kind);
      return std::make_unique<CheckServeBackend>(std::move(sweep));
    }
  } catch (const std::exception& e) {
    error = e.what();
    return nullptr;
  }
  error = kind.empty() ? "job spec: missing \"backend\" field"
                       : "job spec: unknown backend \"" + kind + "\"";
  return nullptr;
}

const std::vector<std::string>& backend_kinds() {
  static const std::vector<std::string> kinds = {"fuzz", "rsm", "attack",
                                                 "rare", "check"};
  return kinds;
}

BoundOptions spec_options(const std::string& kind, Json& spec) {
  for (const FuzzKind k : {FuzzKind::Fuzz, FuzzKind::Rsm, FuzzKind::Attack}) {
    if (kind == fuzz_kind_name(k)) {
      return fuzz_options(k).bind_spec(spec, FuzzJob(k));
    }
  }
  if (kind == "rare") return rare_options().bind_spec(spec, RareConfig{});
  if (kind == "check") {
    return check_sweep_options().bind_spec(spec, CheckSweep{});
  }
  return {};
}

}  // namespace mcan
