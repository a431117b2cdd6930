// engine_bench: the simulator's end-to-end benchmark.
//
//   engine_bench --workload W --seed N --seconds S --trace 0|1
//                [--smoke] [--expect FILE] [--record FILE]
//                [--commit C] [--src-digest D]
//
// W is one of fuzz_can8, rare_table1_can32, check_major3_k4, serve_mix.
// --trace 0 measures the workload untraced and prints its end-to-end
// metrics; --trace 1 runs every traced layer stage and prints the
// per-layer metrics, plus process, kernel and tracing-overhead figures for
// W.  The last stdout line is the JSON result object.  perfbench/run.py
// builds this program and is the command to run.
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <thread>

#include "sim/kernel.hpp"
#include "workloads.hpp"

namespace pb {

void emit_e2e(Report& r, const std::vector<double>& rates,
              const std::vector<double>& setups,
              const std::vector<std::vector<double>>& job_latency_s) {
  std::vector<double> p50;
  std::vector<double> p90;
  std::size_t samples = 0;
  for (const std::vector<double>& group : job_latency_s) {
    p50.push_back(quantile(group, 0.5));
    p90.push_back(quantile(group, 0.9));
    samples += group.size();
  }
  r.metric("work_per_s", median(rates), "1/s");
  r.metric("setup_s", median(setups), "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  r.metric("job_latency_p50_ms", ms(median(p50)), "ms");
  r.metric("job_latency_p90_ms", ms(median(p90)), "ms");
  r.meta("samples", std::to_string(rates.size()) + " rates, " +
                        std::to_string(setups.size()) + " set-ups, " +
                        std::to_string(samples) + " job latencies in " +
                        std::to_string(job_latency_s.size()) + " groups");
}

namespace {

struct Workload {
  const char* name;
  void (*e2e)(const Args&, Report&);
  Rep (*rep)(const Args&, Report&, Tracer*);
};

const Workload kWorkloads[] = {
    {"fuzz_can8", fuzz_e2e, fuzz_rep},
    {"rare_table1_can32", rare_e2e, rare_rep},
    {"check_major3_k4", check_e2e, check_rep},
    {"serve_mix", serve_e2e, serve_rep},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "engine_bench: %s\n"
               "usage: engine_bench --workload W --seed N --seconds S "
               "--trace 0|1 [--smoke] [--expect FILE] [--record FILE]\n"
               "  W: fuzz_can8 | rare_table1_can32 | check_major3_k4 | "
               "serve_mix\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& a, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= argc) {
        error = k + " needs a value";
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string v;
    try {
      if (k == "--smoke") {
        a.smoke = true;
      } else if (!value(v)) {
        return false;
      } else if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") throw std::invalid_argument(v);
        a.trace = v == "1";
      } else if (k == "--expect") {
        a.expect_path = v;
      } else if (k == "--record") {
        a.record_path = v;
      } else if (k == "--commit") {
        a.commit = v;
      } else if (k == "--src-digest") {
        a.src_digest = v;
      } else {
        error = "unknown option " + k;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + k + ": " + v;
      return false;
    }
  }
  if (a.workload.empty()) error = "--workload is required";
  return error.empty();
}

void add_meta(const Args& a, Report& r) {
  char host[256] = {0};
  gethostname(host, sizeof host - 1);
  utsname u{};
  uname(&u);
  r.meta("host", host);
  r.meta("os", std::string(u.sysname) + " " + u.release + " " + u.machine);
  r.meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.meta("compiler", PERFBENCH_COMPILER);
  r.meta("build_type", PERFBENCH_BUILD_TYPE);
  r.meta("commit", a.commit);
  r.meta("src_digest", a.src_digest);
  r.meta("default_kernel", mcan::kernel_name(mcan::default_kernel()));
  r.meta("workload", a.workload);
  r.meta("seed", std::to_string(a.seed));
  r.meta("seconds", std::to_string(a.seconds));
  r.meta("trace", a.trace ? "1" : "0");
  r.meta("smoke", a.smoke ? "1" : "0");
}

/// The traced run: every layer stage, then the process, kernel and
/// tracing-overhead figures for workload `w`.
void traced(const Args& a, Report& r, const Workload& w) {
  Tracer tr;
  std::vector<mcan::ScenarioSpec> sample;
  const Rep fuzz = fuzz_layers(a, r, tr, sample);
  replay_layers(a, r, tr, sample);
  const Rep rare = rare_layers(a, r, tr);
  const Rep check = check_layers(a, r, tr);
  const Rep serve = serve_layers(a, r, tr);
  const std::string name = w.name;
  const Rep traced_rep = name == "fuzz_can8"           ? fuzz
               : name == "rare_table1_can32" ? rare
               : name == "check_major3_k4"   ? check
                                             : serve;

  // Untraced repetitions of the workload under each kernel, plus a second
  // traced one, interleaved; medians of two.  Every repetition is
  // verified, so a kernel that changes results fails the run.
  auto per_unit = [](const Rep& x) { return x.wall_s / std::max(x.units, 1.0); };
  std::vector<double> ref_unit;
  std::vector<double> fast_unit;
  std::vector<double> traced_unit{per_unit(traced_rep)};
  Rep ref;
  for (int pass = 0; pass < 2; ++pass) {
    {
      Scoped s(&tr, "kernel.ref");
      ref = w.rep(a, r, nullptr);
      ref_unit.push_back(per_unit(ref));
    }
    mcan::set_default_kernel(mcan::KernelKind::Fast);
    {
      Scoped s(&tr, "kernel.fast");
      fast_unit.push_back(per_unit(w.rep(a, r, nullptr)));
    }
    mcan::set_default_kernel(mcan::KernelKind::Ref);
    if (pass == 0) traced_unit.push_back(per_unit(w.rep(a, r, &tr)));
  }

  r.metric("proc.cpu_s", ref.cpu_s, "s");
  r.metric("proc.parallel_eff", ref.cpu_s / (ref.wall_s * kJobs), "ratio");
  r.metric("sim.fast_over_ref", median(ref_unit) / median(fast_unit), "ratio");
  r.metric("trace.overhead_frac", median(traced_unit) / median(ref_unit) - 1.0,
           "fraction");

  const std::string path = a.work_dir + "/spans-" + name + "-seed" +
                           std::to_string(a.seed) + ".json";
  if (!tr.write(path)) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

}  // namespace

}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  Args a;
  std::string error;
  if (!parse(argc, argv, a, error)) return usage(error.c_str());
  const Workload* w = nullptr;
  for (const Workload& x : kWorkloads) {
    if (a.workload == x.name) w = &x;
  }
  if (!w) return usage(("unknown workload " + a.workload).c_str());

  try {
    std::filesystem::create_directories(a.work_dir);
    Report r;
    if (!r.load_expectations(a.expect_path, error)) {
      std::fprintf(stderr, "engine_bench: %s\n", error.c_str());
      return 1;
    }
    add_meta(a, r);
    if (a.trace) {
      traced(a, r, *w);
    } else {
      w->e2e(a, r);
    }
    if (!a.record_path.empty() && !r.save_results(a.record_path, error)) {
      std::fprintf(stderr, "engine_bench: %s\n", error.c_str());
      return 1;
    }
    r.print(!a.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "engine_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
