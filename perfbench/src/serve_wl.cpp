// serve_mix: an in-process campaign daemon (CampaignServer, 2 workers, a
// journal directory on local disk) driven over its Unix socket by one
// client connection in a closed loop with 2 jobs outstanding.  The client
// cycles through a seeded list of small fuzz, rsm, attack, rare and check
// specs, and every served result is compared byte for byte with what the
// in-process backend (make_backend) produces for the same spec.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>

#include "serve/backend.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using mcan::Json;

// ---------------------------------------------------------------------------
// The seeded job list.
// ---------------------------------------------------------------------------

Json spec_of(const char* backend) {
  Json s = Json::object();
  s.set("backend", Json(backend));
  return s;
}

Json num(long long v) { return Json(v); }

/// kPerKind specs of each kind, interleaved.  Shapes are fixed; the
/// campaign seeds are drawn from the workload seed, so a cycle's cost
/// averages over several trajectories per kind.
constexpr int kPerKind = 6;

std::vector<Json> job_list(const Args& a) {
  mcan::Rng rng(a.seed, 17);
  auto seed = [&rng] { return num(1 + rng.next_below(1000000)); };
  const char* check_protocols[] = {"can", "minor", "major:3"};
  std::vector<Json> out;
  for (int i = 0; i < kPerKind; ++i) {
    Json fuzz = spec_of("fuzz");
    fuzz.set("protocol", Json("can"));
    fuzz.set("nodes", num(4));
    fuzz.set("seed", seed());
    fuzz.set("max_execs", num(96));
    fuzz.set("batch", num(32));
    out.push_back(fuzz);

    Json rsm = spec_of("rsm");
    rsm.set("protocol", Json("major:3"));
    rsm.set("nodes", num(3));
    rsm.set("seed", seed());
    rsm.set("max_execs", num(16));
    rsm.set("batch", num(8));
    out.push_back(rsm);

    Json attack = spec_of("attack");
    attack.set("protocol", Json("major:3"));
    attack.set("nodes", num(4));
    attack.set("seed", seed());
    attack.set("max_execs", num(64));
    attack.set("batch", num(32));
    out.push_back(attack);

    Json rare = spec_of("rare");
    rare.set("protocol", Json("can"));
    rare.set("nodes", num(8));
    rare.set("ber", Json(1e-5));
    rare.set("seed", seed());
    rare.set("trials", num(1024));
    rare.set("batch", num(128));
    out.push_back(rare);

    Json check = spec_of("check");
    Json list = Json::array();
    list.push(Json(check_protocols[i % 3]));
    check.set("protocols", std::move(list));
    check.set("max_k", num(2));
    check.set("nodes", num(4));
    out.push_back(check);
  }
  return out;
}

/// Run a spec through the in-process backend, inline on one thread: the
/// reference bytes a served result must equal.
std::string run_inline(const Json& spec, std::string& error) {
  std::unique_ptr<mcan::CampaignBackend> b = mcan::make_backend(spec, error);
  if (!b) return {};
  for (;;) {
    const std::size_t n = b->plan_round();
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) b->execute_slot(i);
    b->merge_round();
  }
  return b->result_json();
}

// ---------------------------------------------------------------------------
// Client side of the wire protocol.
// ---------------------------------------------------------------------------

class Client {
 public:
  Client() = default;
  ~Client() { close_fd(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect(const std::string& path, std::string& error) {
    close_fd();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) {
      error = "socket: cannot create or path too long";
      return false;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      error = path + ": " + std::strerror(errno);
      return false;
    }
    return true;
  }

  /// One request/response exchange; false on a transport failure.
  bool call(Tracer* tr, const std::string& span, const Json& req, Json& res,
            long long job = 0) {
    Scoped s(tr, span, -2, job);
    std::string payload;
    std::string error;
    return mcan::write_frame(fd_, req.dump()) &&
           mcan::read_frame(fd_, payload) == mcan::FrameRead::kOk &&
           Json::parse(payload, res, error);
  }

  bool ping(Tracer* tr) {
    Json res;
    return call(tr, "serve.ping", mcan::make_request("ping"), res) &&
           res.find("ok") && res.find("ok")->as_bool();
  }

 private:
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
};

bool ok_of(const Json& res) {
  const Json* ok = res.find("ok");
  return ok && ok->as_bool();
}

std::string str_of(const Json* j) {
  return j && j->is_string() ? j->as_string() : std::string();
}

// ---------------------------------------------------------------------------
// One daemon lifetime.
// ---------------------------------------------------------------------------

class Daemon {
 public:
  /// Start from an empty journal directory; `setup_s` covers construction,
  /// start, connect and the first answered ping.
  bool start(const Args& a, Tracer* tr, double& setup_s, std::string& error) {
    socket_ = a.work_dir + "/serve.sock";
    journal_ = a.work_dir + "/serve-journal";
    std::filesystem::remove_all(journal_);
    std::filesystem::remove(socket_);
    const double t0 = now_s();
    {
      Scoped s(tr, "serve.start");
      mcan::ServerConfig cfg;
      cfg.socket_path = socket_;
      cfg.serve.journal_dir = journal_;
      cfg.pool.workers = kJobs;
      server_ = std::make_unique<mcan::CampaignServer>(cfg);
      std::vector<std::string> notes;
      if (!server_->start(notes, error)) return false;
    }
    if (!client_.connect(socket_, error) || !client_.ping(tr)) {
      if (error.empty()) error = "first ping failed";
      return false;
    }
    setup_s = now_s() - t0;
    return true;
  }

  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void stop() {
    if (server_) server_->stop();
    server_.reset();
    std::error_code ec;
    std::filesystem::remove(socket_, ec);
  }

  Client& client() { return client_; }
  [[nodiscard]] const std::string& journal_dir() const { return journal_; }

 private:
  std::unique_ptr<mcan::CampaignServer> server_;
  Client client_;
  std::string socket_;
  std::string journal_;
};

struct JobTimes {
  std::size_t spec = 0;
  double submitted = 0;   ///< before the submit request
  double started = -1;    ///< first status showing it past "queued"
  double done = -1;       ///< first status showing "done" (traced runs)
  double latency = 0;     ///< submit until the result bytes are in hand
  std::string result;
};

/// Drive the closed loop: keep 2 jobs outstanding, cycling through
/// `specs` `cycles` times.  Traced runs poll `status` (for queue wait and
/// run time) before fetching the result; untraced runs poll `result`
/// directly.  Returns the completed jobs; rejected and failed jobs are
/// counted in r.
std::vector<JobTimes> closed_loop(Client& cl, const std::vector<Json>& specs,
                                  int cycles, Tracer* tr, Report& r) {
  std::vector<JobTimes> done;
  std::vector<std::pair<long long, JobTimes>> outstanding;
  const std::size_t total = specs.size() * static_cast<std::size_t>(cycles);
  std::size_t next = 0;
  while (next < total || !outstanding.empty()) {
    while (next < total && outstanding.size() < 2) {
      JobTimes jt;
      jt.spec = next % specs.size();
      Json req = mcan::make_request("submit");
      req.set("spec", specs[jt.spec]);
      req.set("priority", Json(0LL));
      jt.submitted = now_s();
      Json res;
      const bool sent = cl.call(tr, "serve.submit", req, res,
                                static_cast<long long>(next));
      ++next;
      if (!sent || !ok_of(res)) {
        r.count(false, "submit rejected: " + str_of(res.find("error")));
        continue;
      }
      outstanding.emplace_back(res.find("id")->as_int(), jt);
    }
    bool progressed = false;
    for (std::size_t i = 0; i < outstanding.size();) {
      auto& [id, jt] = outstanding[i];
      std::string state;
      Json res;
      if (tr) {
        Json q = mcan::make_request("status");
        q.set("id", Json(id));
        if (!cl.call(tr, "serve.status", q, res, id)) {
          r.count(false, "status: transport failure");
          outstanding.erase(outstanding.begin() + static_cast<long>(i));
          continue;
        }
        const Json* job = res.find("job");
        state = job ? str_of(job->find("state")) : "";
        const double t = now_s();
        if (state != "queued" && jt.started < 0) jt.started = t;
        if (state == "done" && jt.done < 0) jt.done = t;
        if (state != "done" && state != "failed" && state != "cancelled") {
          ++i;
          continue;
        }
      }
      Json q = mcan::make_request("result");
      q.set("id", Json(id));
      if (!cl.call(tr, "serve.result", q, res, id)) {
        r.count(false, "result: transport failure");
        outstanding.erase(outstanding.begin() + static_cast<long>(i));
        continue;
      }
      state = str_of(res.find("state"));
      if (state == "done" && ok_of(res)) {
        jt.latency = now_s() - jt.submitted;
        jt.result = str_of(res.find("result"));
        done.push_back(std::move(jt));
      } else if (state == "failed" || state == "cancelled") {
        r.count(false, "served job " + state + ": " + str_of(res.find("error")));
      } else {
        ++i;
        continue;
      }
      outstanding.erase(outstanding.begin() + static_cast<long>(i));
      progressed = true;
    }
    if (!progressed && !outstanding.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return done;
}

/// Compare every served result with the in-process backend's bytes for the
/// same spec (each distinct spec run once, after the timed loop), and pin
/// those reference bytes against the committed expectations.
void verify_served(const Args& a, Report& r, const std::vector<Json>& specs,
                   const std::vector<JobTimes>& jobs, Tracer* tr) {
  std::vector<std::string> ref(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::string error;
    {
      Scoped s(tr, "serve.inproc", -2, static_cast<long long>(i));
      ref[i] = run_inline(specs[i], error);
    }
    r.verify("serve_mix/seed=" + std::to_string(a.seed) + "/spec=" +
                 std::to_string(i),
             error.empty() ? ref[i] : "error: " + error);
  }
  for (const JobTimes& jt : jobs) {
    r.count(jt.result == ref[jt.spec],
            "served result differs from in-process bytes for spec " +
                specs[jt.spec].dump());
  }
}

/// Cycles of the job list one daemon serves in a block (150 jobs, so a
/// block's p90 has 15 samples beyond it).
int block_cycles(const Args& a) { return a.smoke ? 1 : 5; }

/// One daemon lifetime serving `cycles` cycles of the job list; the
/// completed jobs are appended to `jobs`.  Returns false when the daemon
/// did not start.
bool serve_block(const Args& a, Report& r, const std::vector<Json>& specs,
                 int cycles, Tracer* tr, double& setup_s, double& loop_s,
                 std::vector<JobTimes>& jobs) {
  Daemon d;
  std::string error;
  if (!d.start(a, tr, setup_s, error)) {
    r.count(false, "daemon start: " + error);
    return false;
  }
  const double t0 = now_s();
  std::vector<JobTimes> done = closed_loop(d.client(), specs, cycles, tr, r);
  loop_s = now_s() - t0;
  jobs.insert(jobs.end(), std::make_move_iterator(done.begin()),
              std::make_move_iterator(done.end()));
  return true;
}

}  // namespace

void serve_e2e(const Args& a, Report& r) {
  const std::vector<Json> specs = job_list(a);
  std::vector<JobTimes> jobs;
  double setup = 0;
  double loop = 0;
  (void)serve_block(a, r, specs, 1, nullptr, setup, loop, jobs);  // warm-up
  // Fixed-size blocks, each on a fresh daemon, so the daemon's job table
  // (and with it memory) is the same size in every run.
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<std::vector<double>> latency;
  const double t0 = now_s();
  repeat_until(t0, a.seconds, 1, [&] {
    const std::size_t first = jobs.size();
    if (!serve_block(a, r, specs, block_cycles(a), nullptr, setup, loop, jobs)) {
      return;
    }
    setups.push_back(setup);
    rates.push_back(static_cast<double>(jobs.size() - first) / loop);
    std::vector<double>& group = latency.emplace_back();
    for (std::size_t i = first; i < jobs.size(); ++i) {
      group.push_back(jobs[i].latency);
    }
  });
  verify_served(a, r, specs, jobs, nullptr);
  r.meta("sizes", "workers=2 outstanding=2 specs=" +
                      std::to_string(specs.size()) + " block=" +
                      std::to_string(block_cycles(a) * specs.size()) +
                      " jobs=" + std::to_string(jobs.size()));
  emit_e2e(r, rates, setups, latency);
}

Rep serve_rep(const Args& a, Report& r, Tracer* tr) {
  const std::vector<Json> specs = job_list(a);
  std::vector<JobTimes> jobs;
  double setup = 0;
  Rep rep;
  const double c0 = cpu_s();
  (void)serve_block(a, r, specs, block_cycles(a), tr, setup, rep.wall_s, jobs);
  rep.cpu_s = cpu_s() - c0;
  rep.units = static_cast<double>(jobs.size());
  verify_served(a, r, specs, jobs, nullptr);
  return rep;
}

Rep serve_layers(const Args& a, Report& r, Tracer& tr) {
  const std::vector<Json> specs = job_list(a);
  for (int i = 0; i < 4; ++i) {  // start-up samples
    Daemon d;
    double setup = 0;
    std::string error;
    r.count(d.start(a, &tr, setup, error), "daemon start: " + error);
  }
  Daemon d;
  double setup = 0;
  std::string error;
  Rep rep;
  if (!d.start(a, &tr, setup, error)) {
    r.count(false, "daemon start: " + error);
    return rep;
  }
  r.metric("serve.start_ms", ms(median(tr.durations("serve.start"))), "ms");
  const int pings = a.smoke ? 100 : 2000;
  for (int i = 0; i < pings; ++i) r.count(d.client().ping(&tr), "ping failed");
  const std::vector<double> ping = tr.durations("serve.ping");
  r.metric("serve.ping_us_p50", us(quantile(ping, 0.5)), "us");
  r.metric("serve.ping_us_p99", us(quantile(ping, 0.99)), "us");

  const double c0 = cpu_s();
  const double t0 = now_s();
  const std::vector<JobTimes> jobs =
      closed_loop(d.client(), specs, block_cycles(a), &tr, r);
  rep.wall_s = now_s() - t0;
  rep.cpu_s = cpu_s() - c0;
  rep.units = static_cast<double>(jobs.size());

  Json stats;
  (void)d.client().call(&tr, "serve.stats", mcan::make_request("stats"), stats);
  const Json* st = stats.find("stats");
  const Json* shards = st ? st->find("shards") : nullptr;
  const Json* requeued = shards ? shards->find("requeued") : nullptr;
  d.stop();

  std::uintmax_t journal_bytes = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator(d.journal_dir(), ec)) {
    if (e.is_regular_file()) journal_bytes += e.file_size();
  }

  verify_served(a, r, specs, jobs, &tr);

  std::vector<double> latency;
  std::vector<double> wait;
  std::vector<double> run;
  for (const JobTimes& jt : jobs) {
    latency.push_back(jt.latency);
    wait.push_back(jt.started - jt.submitted);
    run.push_back(jt.done - jt.started);
  }
  r.metric("serve.submit_us_p50", us(median(tr.durations("serve.submit"))), "us");
  r.metric("serve.result_us_p50", us(median(tr.durations("serve.result"))), "us");
  r.metric("serve.queue_wait_ms_p50", ms(median(wait)), "ms");
  r.metric("serve.run_ms_p50", ms(median(run)), "ms");
  const double inproc = median(tr.durations("serve.inproc"));
  r.metric("serve.inproc_ms_p50", ms(inproc), "ms");
  r.metric("serve.overhead_ratio", median(latency) / inproc, "ratio");
  r.metric("serve.journal_bytes_per_job",
           static_cast<double>(journal_bytes) /
               static_cast<double>(std::max<std::size_t>(jobs.size(), 1)),
           "bytes");
  r.metric("serve.shard_retries",
           requeued ? static_cast<double>(requeued->as_int()) : -1, "count");
  return rep;
}

}  // namespace pb
