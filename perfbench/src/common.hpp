// Shared plumbing of the engine benchmark: command-line arguments, the
// result report (metrics, correctness accounting, metadata), committed
// expectations, the in-memory span recorder used by traced runs, and the
// round loop every campaign workload shares.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pb {

// ---------------------------------------------------------------------------
// Time and statistics.
// ---------------------------------------------------------------------------

/// Monotonic host time in seconds.
[[nodiscard]] double now_s();
/// Process CPU time (user + system) in seconds, all threads.
[[nodiscard]] double cpu_s();
/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// 64-bit FNV-1a, printed as a result digest.
[[nodiscard]] std::uint64_t fnv64(const std::string& s);
[[nodiscard]] std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Arguments.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;          ///< tiny sizes for the self-test
  std::string expect_path;     ///< committed expectations (JSON object)
  std::string record_path;     ///< write this run's results as expectations
  std::string work_dir = ".bench_work";  ///< scratch files, in the checkout
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

// ---------------------------------------------------------------------------
// The result report.
// ---------------------------------------------------------------------------

class Report {
 public:
  /// Load expectations ("" = none).  False with a message on a bad file.
  bool load_expectations(const std::string& path, std::string& error);

  /// Record one deterministic result under `key` and check it: against the
  /// committed expectation when one exists, else against the first result
  /// this run produced for the key.  Counts one attempted operation, and a
  /// failed one on mismatch.
  void verify(const std::string& key, const std::string& actual);
  /// Count one attempted operation that failed (ok = false) or passed
  /// outside the expectation mechanism (served job rejected, ...).
  void count(bool ok, const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit);
  void meta(const std::string& key, const std::string& value);

  /// Save every verified result as an expectation file (merged into any
  /// existing one at `path`).
  bool save_results(const std::string& path, std::string& error) const;

  /// Human-readable lines, the meta line, digests, then the one-line JSON
  /// result object as the last line of stdout.
  void print(bool with_failed_frac) const;

 private:
  std::map<std::string, std::string> expected_;
  std::map<std::string, std::string> seen_;
  std::vector<std::pair<std::string, std::string>> meta_;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  long long attempted_ = 0;
  long long failed_ = 0;
  int reported_failures_ = 0;
};

// ---------------------------------------------------------------------------
// Span recorder (traced runs only).  Spans live in memory and are written
// out when the run ends; a span's parent is the innermost open span on the
// same thread unless given explicitly (worker threads name the round that
// spawned them).
// ---------------------------------------------------------------------------

class Tracer {
 public:
  /// Open a span; returns its index.  parent = -2: innermost open span of
  /// this thread (or none).
  int open(const std::string& name, int parent = -2, long long req = 0);
  void close(int id);

  /// Sum over spans named `name` of (duration - union of the intervals of
  /// its direct children), in seconds.
  [[nodiscard]] double self_s(const std::string& name) const;
  /// Sum of durations of spans named `name`, in seconds.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Durations of every span named `name`, in seconds.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double t0 = 0;
    double t1 = 0;
    int parent = -1;
    long long req = 0;
    std::uint64_t thread = 0;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* tr, const std::string& name, int parent = -2,
         long long req = 0)
      : tr_(tr), id_(tr ? tr->open(name, parent, req) : -1) {}
  ~Scoped() {
    if (tr_) tr_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tr_;
  int id_;
};

// ---------------------------------------------------------------------------
// The round loop: plan -> execute on `jobs` threads claiming slots off an
// atomic counter -> merge, until plan_round() returns 0.  The same loop the
// engines' own run_fuzz/run_campaign run.  Traced, each round is a
// "<layer>.round" span with "<layer>.plan", "<layer>.execute" (one per
// slot) and "<layer>.merge" children.
// ---------------------------------------------------------------------------

/// Timings the round loop reports: when the first round was planned
/// (absolute now_s()) and the latency of every plan+execute+merge round.
struct RoundStats {
  double first_planned = 0;
  std::vector<double> round_s;
};

template <class Campaign>
void drive_rounds(Campaign& c, int jobs, Tracer* tr, const std::string& layer,
                  int parent = -2, RoundStats* stats = nullptr) {
  const std::string plan = layer + ".plan";
  const std::string exec = layer + ".execute";
  const std::string merge = layer + ".merge";
  const std::string round = layer + ".round";
  for (long long r = 0;; ++r) {
    const double t0 = now_s();
    Scoped rs(tr, round, parent, r);
    std::size_t n = 0;
    {
      Scoped s(tr, plan, rs.id(), r);
      n = c.plan_round();
    }
    if (stats && r == 0) stats->first_planned = now_s();
    if (n == 0) break;
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        Scoped s(tr, exec, rs.id(), r);
        c.execute_slot(i);
      }
    };
    const int threads = std::min<int>(jobs, static_cast<int>(n));
    if (threads <= 1) {
      worker();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(threads));
      for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
      for (std::thread& t : pool) t.join();
    }
    {
      Scoped s(tr, merge, rs.id(), r);
      c.merge_round();
    }
    if (stats) stats->round_s.push_back(now_s() - t0);
  }
}

// ---------------------------------------------------------------------------
// Workloads.  Each entry point runs one workload untraced (end-to-end
// metrics) or traced (per-layer metrics).
// ---------------------------------------------------------------------------

/// Threads every engine workload uses (engine jobs, serve workers).
inline constexpr int kJobs = 2;

/// Milliseconds from seconds, and the like, for metric output.
[[nodiscard]] inline double ms(double s) { return s * 1e3; }
[[nodiscard]] inline double us(double s) { return s * 1e6; }

}  // namespace pb
