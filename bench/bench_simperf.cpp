// Simulator performance baseline: how many bus bits (one sim step = one
// bit time) and whole frames per second each bit engine simulates, across
// the workloads the campaign engines actually run.  Useful for sizing
// fault-injection campaigns — and committed as BENCH_simperf.json so the
// repo's bench trajectory has a datapoint.
//
//     bench_simperf                      # table, the selected kernel
//     bench_simperf --kernel fast        # table, fast kernel only
//     bench_simperf --compare            # both kernels + speedup ratios,
//                                        # certifying identical frame counts
//     bench_simperf --json BENCH_simperf.json
//     bench_simperf --steps 2000000      # longer measurement window
//
// Workloads: an idle bus (pure kernel overhead; driven through run() so
// the fast kernel's idle jump is exercised), a saturated bus (node 0
// always has a frame in flight; per-bit stepping, the campaign engines'
// access pattern) for CAN and MajorCAN_5, a pre-loaded burst bus driven
// through run() (the word-batch regime), and a saturated MajorCAN_5 bus
// under iid channel noise — the rare-event campaign's regime.  Throughput
// varies with the host; the workloads themselves are deterministic, and
// --compare exits 1 if the two kernels disagree on delivered frames.
#include <chrono>
#include <climits>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "fault/random_faults.hpp"
#include "sim/kernel.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

enum class Load { Idle, Saturated, Burst };

struct Workload {
  std::string name;
  ProtocolParams proto;
  int nodes = 0;
  Load load = Load::Idle;
  double ber = 0;
};

struct Measurement {
  std::string name;
  KernelKind kernel = KernelKind::Ref;
  int nodes = 0;
  long long steps = 0;   ///< simulated bit times
  long long frames = 0;  ///< frames delivered at node 1 (0 for idle)
  double seconds = 0;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Simulate `steps` bit times of one workload under one kernel.
Measurement run_bus(const Workload& w, long long steps, KernelKind kind) {
  set_default_kernel(kind);  // Network's constructor reads the global
  Network net(w.nodes, w.proto);
  RandomFaults inj(w.ber, Rng(1));
  if (w.ber > 0) net.set_injector(inj);
  Measurement m;
  m.name = w.name;
  m.kernel = kind;
  m.nodes = w.nodes;
  m.steps = steps;
  int next = 0;
  const double t0 = now_s();
  switch (w.load) {
    case Load::Idle:
      // One run() call: lets kernels fast-forward the all-idle stretch.
      net.sim().run(static_cast<BitTime>(steps));
      break;
    case Load::Saturated:
      // Keep node 0 loaded, checking between every bit — the access
      // pattern of the campaign engines (step, inspect, step, ...).
      for (long long i = 0; i < steps; ++i) {
        if (net.node(0).pending_tx() < 2) {
          net.node(0).enqueue(Frame::make_blank(
              0x100 + static_cast<std::uint32_t>(next++ % 8), 8));
        }
        net.sim().step();
      }
      break;
    case Load::Burst:
      // Pre-load a deep queue and hand the whole window to run(): no
      // per-bit host interaction, the word-batch regime.
      for (long long i = 0; i < steps / 100 + 1; ++i) {
        net.node(0).enqueue(Frame::make_blank(
            0x100 + static_cast<std::uint32_t>(i % 8), 8));
      }
      net.sim().run(static_cast<BitTime>(steps));
      break;
  }
  m.seconds = now_s() - t0;
  m.frames = static_cast<long long>(net.deliveries(1).size());
  return m;
}

double bits_per_s(const Measurement& m) {
  return m.seconds > 0 ? static_cast<double>(m.steps) / m.seconds : 0;
}

double frames_per_s(const Measurement& m) {
  return m.seconds > 0 ? static_cast<double>(m.frames) / m.seconds : 0;
}

std::string json_row(const Measurement& m, double speedup) {
  std::string j = "{\"workload\": \"" + m.name + "\", \"kernel\": \"" +
                  kernel_name(m.kernel) +
                  "\", \"nodes\": " + std::to_string(m.nodes) +
                  ", \"steps\": " + std::to_string(m.steps) +
                  ", \"seconds\": " + json_number(m.seconds) +
                  ", \"bits_per_s\": " + json_number(bits_per_s(m)) +
                  ", \"frames\": " + std::to_string(m.frames) +
                  ", \"frames_per_s\": " + json_number(frames_per_s(m));
  if (speedup > 0) j += ", \"speedup_vs_ref\": " + json_number(speedup);
  return j + "}";
}

/// --expect-speedup workload:nodes:X — CI gate: with --compare, the fast
/// kernel must run workload (at the given bus size) at least X times the
/// reference throughput, else exit 1.  Repeatable.
struct SpeedupGate {
  std::string workload;
  int nodes = 0;
  double min_speedup = 0;
  bool seen = false;
};

SpeedupGate parse_gate(const std::string& v) {
  const std::size_t c1 = v.find(':');
  const std::size_t c2 = c1 == std::string::npos ? c1 : v.find(':', c1 + 1);
  SpeedupGate g;
  long long nodes = 0;
  if (c2 == std::string::npos || c1 == 0 ||
      !parse_integer(v.substr(c1 + 1, c2 - c1 - 1), 1, 1024, nodes).empty() ||
      !parse_real(v.substr(c2 + 1), 1e-9, 1e9, g.min_speedup).empty()) {
    throw std::invalid_argument("'" + v + "' is not workload:nodes:X");
  }
  g.workload = v.substr(0, c1);
  g.nodes = static_cast<int>(nodes);
  return g;
}

struct Options {
  long long steps = 500000;
  bool compare = false;
  std::vector<SpeedupGate> gates;
  RunOptions run;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  OptionTable<Options> table;
  table
      .integer({"--steps", "", "", "N", "simulated bit times per workload"},
               &Options::steps, 1, LLONG_MAX)
      .toggle({"--compare", "", "", "",
               "both kernels + speedup ratios, certifying\n"
               "identical frame counts"},
              &Options::compare, true)
      .tokens({"--expect-speedup", "", "", "W:N:X",
               "with --compare (implied): fast must run workload\n"
               "W at N nodes at least X times faster (repeatable)"},
              &Options::gates, parse_gate, [](const SpeedupGate& g) {
                return g.workload + ":" + std::to_string(g.nodes) + ":" +
                       std::to_string(g.min_speedup);
              });
  if (const int rc = parse_flags(
          "bench_simperf", argc, argv,
          join({table.bind(opt), {kernel_option()},
                run_options().bind(opt.run, {"--json"})}),
          "usage: bench_simperf [options]\n");
      rc >= 0) {
    return rc;
  }
  // The gate only means anything against a reference run.
  const bool compare = opt.compare || !opt.gates.empty();
  const long long steps = opt.steps;
  std::vector<SpeedupGate>& gates = opt.gates;

  const std::vector<Workload> workloads = {
      {"idle_can", ProtocolParams::standard_can(), 4, Load::Idle, 0},
      {"idle_can", ProtocolParams::standard_can(), 32, Load::Idle, 0},
      {"saturated_can", ProtocolParams::standard_can(), 4, Load::Saturated, 0},
      {"saturated_can", ProtocolParams::standard_can(), 32, Load::Saturated,
       0},
      {"saturated_major5", ProtocolParams::major_can(5), 4, Load::Saturated,
       0},
      {"saturated_major5", ProtocolParams::major_can(5), 32, Load::Saturated,
       0},
      {"burst_can", ProtocolParams::standard_can(), 32, Load::Burst, 0},
      {"noisy_major5", ProtocolParams::major_can(5), 8, Load::Saturated,
       1e-4},
  };

  std::printf("=== Simulator throughput (%lld bit times per workload) ===\n\n",
              steps);

  std::vector<std::vector<std::string>> rows;
  rows.push_back(compare
                     ? std::vector<std::string>{"workload", "nodes", "kernel",
                                                "bits/s", "frames", "speedup"}
                     : std::vector<std::string>{"workload", "nodes", "kernel",
                                                "bits/s", "frames",
                                                "frames/s"});
  std::string json = "{\"steps_per_workload\": " + std::to_string(steps) +
                     ", \"compare\": " + (compare ? "true" : "false") +
                     ", \"workloads\": [";
  bool first = true;
  bool mismatch = false;
  for (const Workload& w : workloads) {
    if (compare) {
      const Measurement ref = run_bus(w, steps, KernelKind::Ref);
      const Measurement fast = run_bus(w, steps, KernelKind::Fast);
      const double speedup =
          bits_per_s(ref) > 0 ? bits_per_s(fast) / bits_per_s(ref) : 0;
      if (ref.frames != fast.frames) {
        mismatch = true;
        std::fprintf(stderr,
                     "bench_simperf: KERNEL MISMATCH on %s n=%d: "
                     "ref delivered %lld frames, fast %lld\n",
                     w.name.c_str(), w.nodes, ref.frames, fast.frames);
      }
      rows.push_back({ref.name, std::to_string(ref.nodes), "ref",
                      sci(bits_per_s(ref), 3), std::to_string(ref.frames),
                      ""});
      rows.push_back({fast.name, std::to_string(fast.nodes), "fast",
                      sci(bits_per_s(fast), 3), std::to_string(fast.frames),
                      sci(speedup, 3) + "x"});
      for (SpeedupGate& g : gates) {
        if (g.workload != w.name || g.nodes != w.nodes) continue;
        g.seen = true;
        if (speedup < g.min_speedup) {
          mismatch = true;
          std::fprintf(stderr,
                       "bench_simperf: SPEEDUP GATE FAILED on %s n=%d: "
                       "%.2fx < required %.2fx\n",
                       w.name.c_str(), w.nodes, speedup, g.min_speedup);
        }
      }
      json += (first ? "\n  " : ",\n  ") + json_row(ref, 0) + ",\n  " +
              json_row(fast, speedup);
      first = false;
    } else {
      const Measurement m = run_bus(w, steps, default_kernel());
      rows.push_back({m.name, std::to_string(m.nodes),
                      kernel_name(m.kernel), sci(bits_per_s(m), 3),
                      std::to_string(m.frames), sci(frames_per_s(m), 3)});
      json += (first ? "\n  " : ",\n  ") + json_row(m, 0);
      first = false;
    }
  }
  json += "\n]}\n";
  for (const SpeedupGate& g : gates) {
    if (!g.seen) {
      mismatch = true;
      std::fprintf(stderr,
                   "bench_simperf: --expect-speedup names unknown workload "
                   "%s n=%d\n",
                   g.workload.c_str(), g.nodes);
    }
  }
  std::printf("%s", render_table(rows).c_str());
  if (compare) {
    std::printf("\n%s\n",
                mismatch
                    ? "FRAME-COUNT CERTIFICATION FAILED (see stderr)"
                    : "frame-count certification: ref and fast agree on "
                      "every workload");
  }

  if (!opt.run.json.empty()) {
    if (!write_text_file("bench_simperf", opt.run.json, json)) return 2;
    std::printf("json written to %s\n", opt.run.json.c_str());
  }
  return mismatch ? 1 : 0;
}
