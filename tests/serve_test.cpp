// Campaign orchestration service tests (src/serve/): scheduler semantics
// (priorities, backpressure, cancel), the determinism gate — served
// results byte-identical to local single-process runs for any worker
// count, across worker deaths and kill/resume — the job journal's crash
// recovery, and the socket server end to end, including malformed-input
// rejection and concurrent clients.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/engine.hpp"
#include "rare/campaign.hpp"
#include "serve/backend.hpp"
#include "serve/journal.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/worker.hpp"

namespace mcan {
namespace {

std::string temp_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "mcan-serve-" + tag + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

Json fuzz_spec(std::uint64_t seed, std::uint64_t max_execs) {
  Json spec = Json::object();
  spec.set("backend", Json("fuzz"));
  spec.set("protocol", Json("major:5"));
  spec.set("seed", Json(static_cast<long long>(seed)));
  spec.set("max_execs", Json(static_cast<long long>(max_execs)));
  return spec;
}

Json rare_spec(std::uint64_t seed, long long trials) {
  Json spec = Json::object();
  spec.set("backend", Json("rare"));
  spec.set("protocol", Json("can"));
  spec.set("nodes", Json(8LL));
  spec.set("mode", Json("importance"));
  spec.set("seed", Json(static_cast<long long>(seed)));
  spec.set("trials", Json(trials));
  return spec;
}

/// The local single-process reference the serve results must match byte
/// for byte (wall-clock fields zeroed, as the backends do).
std::string local_fuzz_result(std::uint64_t seed, std::uint64_t max_execs) {
  FuzzConfig cfg;
  cfg.protocol = ProtocolParams::major_can(5);
  cfg.seed = seed;
  cfg.max_execs = max_execs;
  FuzzResult res = run_fuzz(cfg, {});
  res.stats.elapsed_s = 0;
  return fuzz_stats_json(res.stats, cfg.protocol, cfg.n_nodes, cfg.seed);
}

std::string local_rare_result(std::uint64_t seed, long long trials) {
  RareConfig cfg;
  cfg.protocol = ProtocolParams::standard_can();
  cfg.n_nodes = 8;
  cfg.mode = RareMode::kImportance;
  cfg.seed = seed;
  cfg.trials = trials;
  RareResult res = run_campaign(cfg);
  res.seconds = 0;
  return res.to_json();
}

void wait_terminal(JobManager& mgr, std::uint64_t id, JobProgress& out) {
  for (int i = 0; i < 6000; ++i) {
    ASSERT_TRUE(mgr.status(id, out));
    if (job_state_terminal(out.state)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "job " << id << " did not finish within 60 s";
}

struct ServeRun {
  std::string result;
  JobProgress progress;
  std::uint64_t deaths = 0;
};

/// Submit one job into a fresh manager + pool, wait for it, tear down.
ServeRun run_serve(const Json& spec, int workers, ServeConfig scfg = {},
                   WorkerPoolConfig pcfg = {}) {
  ServeRun out;
  JobManager mgr(scfg);
  pcfg.workers = workers;
  pcfg.monitor_period_s = 0.02;  // notice injected deaths fast
  WorkerPool pool(mgr, pcfg);
  pool.start();
  std::string error;
  bool rejected = false;
  const std::uint64_t id = mgr.submit(spec, 0, error, rejected);
  EXPECT_NE(id, 0u) << error;
  if (id != 0) {
    wait_terminal(mgr, id, out.progress);
    JobState state = JobState::kQueued;
    std::string result;
    if (mgr.result(id, state, result, error)) out.result = result;
  }
  pool.stop_join();
  out.deaths = pool.deaths();
  return out;
}

// --- scheduler semantics ---------------------------------------------------

TEST(Scheduler, BackpressureRejectsBeyondCapacity) {
  ServeConfig cfg;
  cfg.capacity = 1;
  JobManager mgr(cfg);  // no workers: the first job stays live
  std::string error;
  bool rejected = false;
  ASSERT_NE(mgr.submit(fuzz_spec(1, 100), 0, error, rejected), 0u);
  EXPECT_EQ(mgr.submit(fuzz_spec(2, 100), 0, error, rejected), 0u);
  EXPECT_TRUE(rejected);  // retry-later, not a malformed-spec error
  mgr.stop();
}

TEST(Scheduler, InvalidSpecsAreErrorsNotBackpressure) {
  JobManager mgr(ServeConfig{});
  Json spec = Json::object();
  spec.set("backend", Json("warp-drive"));
  std::string error;
  bool rejected = false;
  EXPECT_EQ(mgr.submit(spec, 0, error, rejected), 0u);
  EXPECT_FALSE(rejected);
  EXPECT_FALSE(error.empty());
  mgr.stop();
}

TEST(Scheduler, HigherPriorityJobsClaimFirst) {
  JobManager mgr(ServeConfig{});
  std::string error;
  bool rejected = false;
  const std::uint64_t low = mgr.submit(fuzz_spec(1, 100), 0, error, rejected);
  const std::uint64_t high = mgr.submit(fuzz_spec(2, 100), 5, error, rejected);
  ASSERT_NE(low, 0u);
  ASSERT_NE(high, 0u);
  {
    Claim claim;
    ASSERT_TRUE(mgr.claim_wait(claim));
    EXPECT_EQ(claim.ref.job_id, high);
  }
  mgr.stop();
}

TEST(Scheduler, CancelIsTerminalAndSticky) {
  JobManager mgr(ServeConfig{});  // no workers: job stays queued
  std::string error;
  bool rejected = false;
  const std::uint64_t id = mgr.submit(fuzz_spec(1, 100), 0, error, rejected);
  ASSERT_NE(id, 0u);
  ASSERT_TRUE(mgr.cancel(id, error));
  JobProgress p;
  ASSERT_TRUE(mgr.status(id, p));
  EXPECT_EQ(p.state, JobState::kCancelled);
  EXPECT_FALSE(mgr.cancel(id, error));  // already terminal
  JobState state = JobState::kQueued;
  std::string result;
  EXPECT_FALSE(mgr.result(id, state, result, error));
  EXPECT_EQ(state, JobState::kCancelled);
  mgr.stop();
}

TEST(Scheduler, FinishedJobReleasesItsEngineAndStaysQueryable) {
  JobManager mgr(ServeConfig{});  // driven by hand, no worker pool
  std::string error;
  bool rejected = false;
  const std::uint64_t id = mgr.submit(rare_spec(3, 300), 0, error, rejected);
  ASSERT_NE(id, 0u) << error;
  std::weak_ptr<CampaignBackend> engine;
  JobProgress p;
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(mgr.status(id, p));
    if (job_state_terminal(p.state)) break;
    Claim claim;
    ASSERT_TRUE(mgr.claim_wait(claim));
    engine = claim.backend;
    for (std::size_t i = claim.ref.begin; i < claim.ref.end; ++i) {
      claim.backend->execute_slot(i);
    }
    mgr.complete(claim.ref);
  }
  ASSERT_EQ(p.state, JobState::kDone);
  // The last claim is gone and the manager kept no reference of its own.
  EXPECT_TRUE(engine.expired());

  const std::string expected = local_rare_result(3, 300);
  JobState state = JobState::kQueued;
  std::string result;
  ASSERT_TRUE(mgr.result(id, state, result, error)) << error;
  EXPECT_EQ(result, expected);
  EXPECT_EQ(p.units_done, 300u);

  // Cancelling a finished job is a no-op: refused, nothing changes.
  EXPECT_FALSE(mgr.cancel(id, error));
  EXPECT_NE(error.find("already done"), std::string::npos) << error;
  ASSERT_TRUE(mgr.status(id, p));
  EXPECT_EQ(p.state, JobState::kDone);
  EXPECT_EQ(p.units_done, 300u);
  result.clear();
  ASSERT_TRUE(mgr.result(id, state, result, error));
  EXPECT_EQ(result, expected);
  mgr.stop();
}

// --- the determinism gate --------------------------------------------------

TEST(Determinism, ServedFuzzResultMatchesLocalRunForAnyWorkerCount) {
  const std::string expected = local_fuzz_result(7, 600);
  const ServeRun one = run_serve(fuzz_spec(7, 600), 1);
  const ServeRun four = run_serve(fuzz_spec(7, 600), 4);
  EXPECT_EQ(one.result, expected);
  EXPECT_EQ(four.result, expected);
}

TEST(Determinism, ServedRareResultMatchesLocalRunForAnyWorkerCount) {
  const std::string expected = local_rare_result(3, 1500);
  const ServeRun one = run_serve(rare_spec(3, 1500), 1);
  const ServeRun four = run_serve(rare_spec(3, 1500), 4);
  EXPECT_EQ(one.result, expected);
  EXPECT_EQ(four.result, expected);
}

TEST(Determinism, KilledWorkerShardRequeueDoesNotPerturbTheResult) {
  // One worker dies holding its first shard; the monitor requeues it, a
  // surviving worker re-executes the same slots, and the merged result is
  // still byte-identical to an undisturbed run.
  const std::string expected = local_fuzz_result(11, 600);
  std::atomic<int> deaths_left{1};
  WorkerPoolConfig pcfg;
  pcfg.fail_hook = [&deaths_left](const ShardRef&) {
    return deaths_left.fetch_sub(1) > 0;
  };
  const ServeRun run = run_serve(fuzz_spec(11, 600), 3, ServeConfig{}, pcfg);
  EXPECT_EQ(run.deaths, 1u);
  EXPECT_GE(run.progress.retries, 1u);
  EXPECT_EQ(run.progress.state, JobState::kDone);
  EXPECT_EQ(run.result, expected);
}

TEST(Determinism, RetryCapFailsAJobWhoseShardsKeepDying) {
  ServeConfig scfg;
  scfg.max_retries = 1;
  scfg.shard_size = 100000;  // one shard per round: deaths hit one shard
  WorkerPoolConfig pcfg;
  pcfg.fail_hook = [](const ShardRef&) { return true; };  // every claim dies
  const ServeRun run = run_serve(fuzz_spec(1, 600), 4, scfg, pcfg);
  EXPECT_EQ(run.progress.state, JobState::kFailed);
  EXPECT_FALSE(run.progress.error.empty());
  EXPECT_TRUE(run.result.empty());
}

// --- journal + crash recovery ----------------------------------------------

TEST(Journal, SnapshotAndTerminalRoundTrip) {
  const std::string dir = temp_dir("jnl");
  JobJournal journal(dir);
  ASSERT_TRUE(journal.open(3, 2, "{\"backend\":\"fuzz\"}", "{\"fp\":1}"));
  ASSERT_TRUE(journal.append_snapshot(3, 64, "{\"state\":\"a\"}"));
  ASSERT_TRUE(journal.append_snapshot(3, 128, "{\"state\":\"b\"}"));
  ASSERT_TRUE(journal.append_done(3, "{\"result\":true}\n"));
  JournalRecord rec;
  std::string error;
  ASSERT_TRUE(JobJournal::load_file(journal.path_for(3), rec, error)) << error;
  EXPECT_EQ(rec.id, 3u);
  EXPECT_EQ(rec.priority, 2);
  EXPECT_EQ(rec.fingerprint, "{\"fp\":1}");
  EXPECT_TRUE(rec.has_snapshot);
  EXPECT_EQ(rec.snap_units, 128u);          // newest snapshot wins
  EXPECT_EQ(rec.snapshot, "{\"state\":\"b\"}");
  EXPECT_EQ(rec.terminal, JournalTerminal::kDone);
  EXPECT_EQ(rec.result, "{\"result\":true}\n");
  std::filesystem::remove_all(dir);
}

TEST(Journal, TornTrailingLineIsDroppedNotFatal) {
  // A kill -9 can interrupt a snapshot append mid-line; the loader must
  // fall back to the previous complete snapshot.
  const std::string dir = temp_dir("torn");
  JobJournal journal(dir);
  ASSERT_TRUE(journal.open(1, 0, "{}", "{}"));
  ASSERT_TRUE(journal.append_snapshot(1, 64, "{\"good\":1}"));
  {
    std::ofstream f(journal.path_for(1), std::ios::app);
    f << "snap 128 {\"tor";  // no trailing newline: torn write
  }
  JournalRecord rec;
  std::string error;
  ASSERT_TRUE(JobJournal::load_file(journal.path_for(1), rec, error)) << error;
  EXPECT_EQ(rec.snap_units, 64u);
  EXPECT_EQ(rec.snapshot, "{\"good\":1}");
  EXPECT_EQ(rec.terminal, JournalTerminal::kNone);
  std::filesystem::remove_all(dir);
}

TEST(Journal, CorruptHeaderIsAnError) {
  const std::string dir = temp_dir("hdr");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/job-9.jnl";
  {
    std::ofstream f(path);
    f << "not a journal\n";
  }
  JournalRecord rec;
  std::string error;
  EXPECT_FALSE(JobJournal::load_file(path, rec, error));
  EXPECT_FALSE(error.empty());
  std::filesystem::remove_all(dir);
}

/// Drive `shards` claims by hand (the worker loop without the threads).
void drive_shards(JobManager& mgr, int shards) {
  for (int i = 0; i < shards; ++i) {
    Claim claim;
    ASSERT_TRUE(mgr.claim_wait(claim));
    for (std::size_t s = claim.ref.begin; s < claim.ref.end; ++s) {
      claim.backend->execute_slot(s);
    }
    mgr.complete(claim.ref);
  }
}

TEST(Recovery, KilledServerResumesByteIdentically) {
  const std::string dir = temp_dir("resume");
  ServeConfig scfg;
  scfg.journal_dir = dir;
  scfg.checkpoint_every = 1;  // snapshot at every merged round
  scfg.shard_size = 16;
  std::uint64_t id = 0;
  {
    // "First daemon": run part of the campaign, snapshot, vanish without
    // a terminal line — exactly what kill -9 after a merge looks like.
    JobManager mgr(scfg);
    std::string error;
    bool rejected = false;
    id = mgr.submit(fuzz_spec(7, 600), 0, error, rejected);
    ASSERT_NE(id, 0u) << error;
    drive_shards(mgr, 6);
    mgr.flush_journals();
    mgr.stop();
  }
  JobManager mgr(scfg);
  const std::vector<std::string> notes = mgr.recover();
  ASSERT_FALSE(notes.empty());
  JobProgress p;
  ASSERT_TRUE(mgr.status(id, p));
  EXPECT_GT(p.resumed_units, 0u);
  EXPECT_LT(p.resumed_units, 600u);
  WorkerPoolConfig pcfg;
  pcfg.workers = 2;
  WorkerPool pool(mgr, pcfg);
  pool.start();
  JobProgress done;
  wait_terminal(mgr, id, done);
  JobState state = JobState::kQueued;
  std::string result, error;
  ASSERT_TRUE(mgr.result(id, state, result, error)) << error;
  pool.stop_join();
  EXPECT_EQ(result, local_fuzz_result(7, 600));
  std::filesystem::remove_all(dir);
}

TEST(Recovery, TerminalJobsStayQueryableAfterRestart) {
  const std::string dir = temp_dir("term");
  ServeConfig scfg;
  scfg.journal_dir = dir;
  std::string expected;
  std::uint64_t id = 0;
  {
    JobManager mgr(scfg);
    WorkerPoolConfig pcfg;
    pcfg.workers = 2;
    WorkerPool pool(mgr, pcfg);
    pool.start();
    std::string error;
    bool rejected = false;
    id = mgr.submit(fuzz_spec(5, 300), 0, error, rejected);
    ASSERT_NE(id, 0u);
    JobProgress p;
    wait_terminal(mgr, id, p);
    JobState state = JobState::kQueued;
    ASSERT_TRUE(mgr.result(id, state, expected, error));
    pool.stop_join();
  }
  JobManager mgr(scfg);
  (void)mgr.recover();
  JobState state = JobState::kQueued;
  std::string result, error;
  ASSERT_TRUE(mgr.result(id, state, result, error)) << error;
  EXPECT_EQ(state, JobState::kDone);
  EXPECT_EQ(result, expected);
  // New submissions must not collide with recovered ids.
  bool rejected = false;
  const std::uint64_t next = mgr.submit(fuzz_spec(1, 100), 0, error, rejected);
  EXPECT_GT(next, id);
  mgr.stop();
  std::filesystem::remove_all(dir);
}

TEST(Recovery, FingerprintMismatchFailsTheJobInsteadOfGuessing) {
  const std::string dir = temp_dir("fpmm");
  ServeConfig scfg;
  scfg.journal_dir = dir;
  scfg.checkpoint_every = 1;
  std::uint64_t id = 0;
  {
    JobManager mgr(scfg);
    std::string error;
    bool rejected = false;
    id = mgr.submit(fuzz_spec(7, 600), 0, error, rejected);
    ASSERT_NE(id, 0u);
    drive_shards(mgr, 6);
    mgr.flush_journals();
    mgr.stop();
  }
  // Corrupt the identity the snapshots belong to.
  const std::string path = JobJournal(dir).path_for(id);
  std::ifstream in(path);
  std::stringstream edited;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("fingerprint ", 0) == 0) {
      line = "fingerprint {\"backend\":\"fuzz\",\"tampered\":true}";
    }
    edited << line << '\n';
  }
  in.close();
  std::ofstream(path) << edited.str();
  JobManager mgr(scfg);
  (void)mgr.recover();
  JobProgress p;
  ASSERT_TRUE(mgr.status(id, p));
  EXPECT_EQ(p.state, JobState::kFailed);
  EXPECT_FALSE(p.error.empty());
  mgr.stop();
  std::filesystem::remove_all(dir);
}

// --- the socket server -----------------------------------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(path.size(), sizeof(addr.sun_path));
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << path << ": " << std::strerror(errno);
  return fd;
}

Json rpc(int fd, const Json& req) {
  EXPECT_TRUE(write_frame(fd, req.dump()));
  std::string payload;
  EXPECT_EQ(read_frame(fd, payload), FrameRead::kOk);
  Json res;
  std::string error;
  EXPECT_TRUE(Json::parse(payload, res, error)) << error;
  return res;
}

struct ServerFixture {
  std::string sock;
  CampaignServer server;
  explicit ServerFixture(ServerConfig cfg = make_config())
      : sock(cfg.socket_path), server(std::move(cfg)) {
    std::vector<std::string> notes;
    std::string error;
    EXPECT_TRUE(server.start(notes, error)) << error;
  }
  ~ServerFixture() { server.stop(); }
  static ServerConfig make_config() {
    static std::atomic<int> counter{0};
    ServerConfig cfg;
    cfg.socket_path = ::testing::TempDir() + "mcan-serve-test-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(counter.fetch_add(1)) + ".sock";
    cfg.pool.workers = 2;
    return cfg;
  }
};

TEST(Server, SubmitRunsToTheSameBytesAsALocalRun) {
  ServerFixture fx;
  const int fd = connect_unix(fx.sock);
  EXPECT_TRUE(rpc(fd, make_request("ping")).find("ok")->as_bool());
  Json submit = make_request("submit");
  submit.set("spec", fuzz_spec(7, 600));
  const Json res = rpc(fd, submit);
  ASSERT_TRUE(res.find("ok")->as_bool()) << res.dump();
  const long long id = res.find("id")->as_int();
  Json status = make_request("status");
  status.set("id", Json(id));
  for (int i = 0; i < 6000; ++i) {
    const Json s = rpc(fd, status);
    ASSERT_TRUE(s.find("ok")->as_bool());
    const std::string state = s.find("job")->find("state")->as_string();
    if (state == "done") break;
    ASSERT_NE(state, "failed") << s.dump();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Json result = make_request("result");
  result.set("id", Json(id));
  const Json r = rpc(fd, result);
  ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  EXPECT_EQ(r.find("result")->as_string(), local_fuzz_result(7, 600));
  const Json stats = rpc(fd, make_request("stats"));
  ASSERT_TRUE(stats.find("ok")->as_bool());
  const Json* body = stats.find("stats");
  ASSERT_NE(body, nullptr);
  for (const char* key :
       {"workers", "capacity", "jobs", "queue_depth", "shards", "throughput",
        "per_job"}) {
    EXPECT_NE(body->find(key), nullptr) << "stats missing " << key;
  }
  EXPECT_GE(body->find("throughput")->find("units_merged")->as_int(), 600);
  ::close(fd);
}

TEST(Server, RejectsMalformedInputWithoutDying) {
  ServerFixture fx;
  const int fd = connect_unix(fx.sock);
  // Bytes that do not parse.
  ASSERT_TRUE(write_frame(fd, "this is not json"));
  std::string payload;
  ASSERT_EQ(read_frame(fd, payload), FrameRead::kOk);
  Json res;
  std::string error;
  ASSERT_TRUE(Json::parse(payload, res, error));
  EXPECT_FALSE(res.find("ok")->as_bool());
  // A non-object request.
  ASSERT_TRUE(write_frame(fd, "[1,2,3]"));
  ASSERT_EQ(read_frame(fd, payload), FrameRead::kOk);
  ASSERT_TRUE(Json::parse(payload, res, error));
  EXPECT_FALSE(res.find("ok")->as_bool());
  // Wrong protocol version.
  Json req = make_request("ping");
  req.set("proto", Json(99LL));
  res = rpc(fd, req);
  EXPECT_FALSE(res.find("ok")->as_bool());
  // Unknown request type.
  res = rpc(fd, make_request("frobnicate"));
  EXPECT_FALSE(res.find("ok")->as_bool());
  EXPECT_NE(res.find("error")->as_string().find("unknown"),
            std::string::npos);
  // The connection survived all of the above.
  EXPECT_TRUE(rpc(fd, make_request("ping")).find("ok")->as_bool());
  ::close(fd);
}

TEST(Server, OversizedFramesAreRejectedAndTheConnectionDropped) {
  ServerFixture fx;
  const int fd = connect_unix(fx.sock);
  const unsigned char prefix[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(fd, prefix, 4), 4);
  std::string payload;
  ASSERT_EQ(read_frame(fd, payload), FrameRead::kOk);
  Json res;
  std::string error;
  ASSERT_TRUE(Json::parse(payload, res, error));
  EXPECT_FALSE(res.find("ok")->as_bool());
  // The server cannot skip a 2 GiB body, so the connection is closed.
  EXPECT_EQ(read_frame(fd, payload), FrameRead::kEof);
  ::close(fd);
  // A fresh connection still works.
  const int fd2 = connect_unix(fx.sock);
  EXPECT_TRUE(rpc(fd2, make_request("ping")).find("ok")->as_bool());
  ::close(fd2);
}

TEST(Server, ServesConcurrentClients) {
  ServerFixture fx;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&fx, &failures] {
      const int fd = connect_unix(fx.sock);
      for (int i = 0; i < 25; ++i) {
        const Json res = rpc(fd, make_request(i % 2 ? "ping" : "stats"));
        const Json* ok = res.find("ok");
        if (ok == nullptr || !ok->as_bool()) failures.fetch_add(1);
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- throughput (env-gated: the CI container is single-core) ---------------

TEST(Throughput, FourWorkersBeatOneByThreeX) {
  if (std::getenv("MCAN_SERVE_PERF") == nullptr) {
    GTEST_SKIP() << "set MCAN_SERVE_PERF=1 on a >= 4-core machine";
  }
  const auto timed = [](int workers) {
    const auto t0 = std::chrono::steady_clock::now();
    const ServeRun run = run_serve(fuzz_spec(1, 20000), workers);
    EXPECT_EQ(run.progress.state, JobState::kDone);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const double one = timed(1);
  const double four = timed(4);
  EXPECT_GE(one / four, 3.0) << "1 worker: " << one << " s, 4 workers: "
                             << four << " s";
}

// --- Job specs through the engines' option tables ---

Json parse_json(const std::string& text) {
  Json j;
  std::string err;
  EXPECT_TRUE(Json::parse(text, j, err)) << err;
  return j;
}

/// A spec as `mcan-client submit <kind> <args>` builds it.
Json client_spec(const std::string& kind,
                 const std::vector<std::string>& args) {
  Json spec = Json::object();
  spec.set("backend", Json(kind));
  std::vector<std::string> positional;
  EXPECT_EQ(parse_command_line(args, spec_options(kind, spec), positional),
            "");
  EXPECT_TRUE(positional.empty());
  return spec;
}

std::string fingerprint_of(const Json& spec) {
  std::string error;
  const std::unique_ptr<CampaignBackend> b = make_backend(spec, error);
  EXPECT_NE(b, nullptr) << error;
  return b ? b->fingerprint() : error;
}

TEST(Backend, HostileSpecsAreRejectedNamingTheKey) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"backend":"rare","trials":"100"})", R"("trials")"},
      {R"({"backend":"fuzz","nodes":"9"})", R"("nodes")"},
      {R"({"backend":"rare","tirals":5})", R"("tirals")"},
      {R"({"backend":"rare","max_flips":3})", R"("max_flips")"},
      {R"({"backend":"check","errors":2})", R"("errors")"},
      {R"({"backend":"rsm","nodes":9})", R"("nodes")"},
      {R"({"backend":"attack","attack_budget":0})", R"("attack_budget")"},
      {R"({"backend":"check","protocols":[]})", R"("protocols")"},
      {R"({"backend":"rare","trials":100.0})", R"("trials")"}};
  for (const auto& [text, key] : cases) {
    std::string error;
    EXPECT_EQ(make_backend(parse_json(text), error), nullptr) << text;
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
}

// Journals stamp the fingerprint, and a job only resumes into an equal
// one: these strings are what the daemon wrote before the option tables
// existed, so its journals keep resuming.
TEST(Backend, FingerprintsAreStableAcrossReleases) {
  // The spec shapes perfbench's serve_mix submits.
  const std::vector<std::pair<std::string, std::string>> served = {
      {R"({"backend":"fuzz","protocol":"can","nodes":4,"seed":123457,)"
       R"("max_execs":96,"batch":32})",
       R"({"backend":"fuzz","protocol":"can","nodes":4,"seed":123457,)"
       R"("max_execs":96,"batch":32,"minimize_every":2048,)"
       R"("max_flips":8,"mutate_protocol":false,"envelope":false})"},
      {R"({"backend":"rsm","protocol":"major:3","nodes":3,)"
       R"("seed":98765,"max_execs":16,"batch":8})",
       R"({"backend":"rsm","commands":3,"payload":4,"k":2,"spacing":0,)"
       R"("link":"direct","crash":-1,"crasht":0,"recovert":0,)"
       R"("protocol":"major:3","nodes":3,"seed":98765,"max_execs":16,)"
       R"("batch":8,"minimize_every":2048,"max_flips":8,)"
       R"("mutate_protocol":false,"envelope":false})"},
      {R"({"backend":"attack","protocol":"major:3","nodes":4,)"
       R"("seed":5555,"max_execs":64,"batch":32})",
       R"({"backend":"attack","protocol":"major:3","nodes":4,)"
       R"("seed":5555,"max_execs":64,"batch":32,"minimize_every":2048,)"
       R"("max_flips":8,"mutate_protocol":false,"envelope":false,)"
       R"("max_attacks":2,"attack_budget":4,"allow_spoof":true,)"
       R"("allow_busoff":true})"},
      {R"({"backend":"rare","protocol":"can","nodes":8,"ber":1e-5,)"
       R"("seed":4242,"trials":1024,"batch":128})",
       R"({"backend":"rare","engine":"CAN n=8 ber=0x1.4f8b588e368f1p-17 )"
       R"(mode=importance seed=4242 quiet=30000 win=[-2,10] base=0x0p+0 )"
       R"(wq=0x1.0624dd2f1a9fcp-9 txq=0x1p-2 tx=[5,6] )"
       R"(rxq=0x1.eb851eb851eb8p-6 rx=[4,5]","batch":128})"},
      {R"({"backend":"check","protocols":["can"],"max_k":2,"nodes":4})",
       R"({"backend":"check","protocols":["can"],"max_k":2,"nodes":4,)"
       R"("budget":0,"dedup":true,"symmetry":true})"},
      {R"({"backend":"check","protocols":["minor"],"max_k":2,"nodes":4})",
       R"({"backend":"check","protocols":["minor"],"max_k":2,)"
       R"("nodes":4,"budget":0,"dedup":true,"symmetry":true})"},
      {R"({"backend":"check","protocols":["major:3"],"max_k":2,"nodes":4})",
       R"({"backend":"check","protocols":["major:3"],"max_k":2,)"
       R"("nodes":4,"budget":0,"dedup":true,"symmetry":true})"}};
  for (const auto& [spec, want] : served) {
    EXPECT_EQ(fingerprint_of(parse_json(spec)), want);
  }
  // The specs the CI daemon gates submit, built the way mcan-client does.
  EXPECT_EQ(fingerprint_of(client_spec(
                "fuzz", {"--protocol", "can", "--seed", "1", "--max-execs",
                         "4000"})),
            R"({"backend":"fuzz","protocol":"can","nodes":3,"seed":1,)"
            R"("max_execs":4000,"batch":64,"minimize_every":2048,)"
            R"("max_flips":8,"mutate_protocol":false,"envelope":false})");
  EXPECT_EQ(fingerprint_of(client_spec(
                "rare", {"--protocol", "can", "--ber", "1e-4", "--seed", "1",
                         "--trials", "20000"})),
            R"({"backend":"rare","engine":"CAN n=32 ber=0x1.a36e2eb1c432dp-14 )"
            R"(mode=importance seed=1 quiet=30000 win=[-2,10] base=0x0p+0 )"
            R"(wq=0x1.0624dd2f1a9fcp-9 txq=0x1p-2 tx=[5,6] )"
            R"(rxq=0x1.eb851eb851eb8p-6 rx=[4,5]","batch":256})");
  EXPECT_EQ(fingerprint_of(client_spec(
                "fuzz", {"--protocol", "major:5", "--seed", "7",
                         "--max-execs", "60000"})),
            R"({"backend":"fuzz","protocol":"major:5","nodes":3,"seed":7,)"
            R"("max_execs":60000,"batch":64,"minimize_every":2048,)"
            R"("max_flips":8,"mutate_protocol":false,"envelope":false})");
  EXPECT_EQ(fingerprint_of(client_spec(
                "rsm", {"--protocol", "can", "--seed", "1", "--max-execs",
                        "600", "--batch", "32", "--commands", "2",
                        "--payload", "2", "--envelope"})),
            R"({"backend":"rsm","commands":2,"payload":2,"k":2,"spacing":0,)"
            R"("link":"direct","crash":-1,"crasht":0,"recovert":0,)"
            R"("protocol":"can","nodes":3,"seed":1,"max_execs":600,)"
            R"("batch":32,"minimize_every":2048,"max_flips":2,)"
            R"("mutate_protocol":false,"envelope":true})");
}

TEST(Backend, EnvelopeSpecMatchesTheCommandLine) {
  for (const std::string proto : {"can", "minor", "major:3", "major:5"}) {
    // mcan-fuzz run --protocol P --envelope
    FuzzJob cli;
    std::vector<std::string> positional;
    ASSERT_EQ(parse_command_line({"--protocol", proto, "--envelope"},
                                 fuzz_options(FuzzKind::Fuzz).bind(cli),
                                 positional),
              "");
    cli.resolve();
    // {"backend": "fuzz", "protocol": P, "envelope": true}
    Json spec = Json::object();
    spec.set("backend", Json("fuzz"));
    spec.set("protocol", Json(proto));
    spec.set("envelope", Json(true));
    FuzzJob served;
    ASSERT_EQ(fuzz_options(FuzzKind::Fuzz).decode(spec, served, "backend"),
              "");
    served.resolve();

    const ProtocolParams p = parse_protocol_arg(proto);
    const FuzzBounds want = FuzzBounds{}.envelope(p);
    EXPECT_EQ(want.max_flips, p.variant == Variant::MajorCan ? p.m : 2);
    EXPECT_FALSE(want.allow_body);
    EXPECT_FALSE(want.allow_crash);
    EXPECT_FALSE(want.mutate_protocol);
    EXPECT_EQ(cli.cfg.bounds, want) << proto;
    EXPECT_EQ(served.cfg.bounds, want) << proto;
    EXPECT_EQ(fingerprint_of(spec), cli.fingerprint()) << proto;
  }
}

TEST(Backend, ClientKindsAreExactlyTheServedKinds) {
  for (const std::string& kind : backend_kinds()) {
    Json spec = Json::object();
    spec.set("backend", Json(kind));
    Json flags_spec = Json::object();
    EXPECT_FALSE(spec_options(kind, flags_spec).empty()) << kind;
    std::string error;
    EXPECT_NE(make_backend(spec, error), nullptr) << kind << ": " << error;
  }
  Json spec = Json::object();
  EXPECT_TRUE(spec_options("warp-drive", spec).empty());
}

}  // namespace
}  // namespace mcan
