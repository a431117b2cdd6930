// mcan-rta: probabilistic worst-case response-time analysis as a
// command-line tool.
//
// Runs the convolution-based WCRT engine (src/analysis/rta/) over a
// periodic message set: classic Tindell/Davis deterministic bounds plus
// full response-time distributions and deadline-miss probabilities under
// the variant error model, with the per-bit error rate sourced from what
// the rare-event engine measured (BENCH_table1.json) rather than an
// assumed constant.
//
//     mcan-rta analyze --protocol major:5 --rates BENCH_table1.json
//     mcan-rta compare --ber 1e-4 --json rta.json     # whole protocol set
//     mcan-rta validate --protocol can --horizon 400000 --seed 1
//     mcan-rta analyze --expect-schedulable --expect-miss-below 1e-6
//
// Exit status: 0 = analysis ran and every --expect-* gate held,
// 1 = a gate failed, 2 = usage error or unusable configuration.
#include <climits>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/rta/prob_rta.hpp"
#include "analysis/rta/rates.hpp"
#include "analysis/rta/rta.hpp"
#include "analysis/rta/validate.hpp"
#include "scenario/model_check.hpp"
#include "sim/kernel.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

struct Options {
  CheckSweep sweep;  ///< the protocol set
  RunOptions run;
  std::string command = "analyze";
  std::string rates_path;
  double ber = 1e-5;
  double period_scale = 1.0;
  int max_retx = 8;
  BitTime horizon = 400000;
  std::uint64_t seed = 1;
  BitTime slack = 0;
  bool expect_schedulable = false;
  double expect_miss_below = -1;  ///< < 0 = no gate
  bool expect_bounded = false;
};

BoundOptions bind_options(Options& opt) {
  static const OptionTable<Options> tool = [] {
    OptionTable<Options> t;
    t.text({"--rates", "", "", "FILE",
            "load measured error rates from a rare-engine\n"
            "result (BENCH_table1.json); the row nearest\n"
            "--ber calibrates the model"},
           &Options::rates_path)
        .real({"--ber", "", "", "X", "per-bit error rate"}, &Options::ber, 0,
              1)
        .real({"--period-scale", "", "", "F",
               "multiply every period by F (F < 1 saturates)"},
              &Options::period_scale, 1e-9, 1e9)
        .integer({"--max-retx", "", "", "N",
                  "retransmission depth modelled exactly"},
                 &Options::max_retx, 0, 1000)
        .integer({"--horizon", "", "", "N", "validate: simulated bit times"},
                 &Options::horizon, 1, LLONG_MAX)
        .integer({"--seed", "", "", "S", "validate: fault-injection seed"},
                 &Options::seed, 0, LLONG_MAX)
        .integer({"--slack", "", "", "B",
                  "validate: one-sided quantile slack in bits"},
                 &Options::slack, 0, LLONG_MAX)
        .toggle({"--expect-schedulable", "", "", "",
                 "exit 1 unless deterministically schedulable"},
                &Options::expect_schedulable, true)
        .real({"--expect-miss-below", "", "", "P",
               "exit 1 unless every stream's deadline-miss\n"
               "probability is below P; -1 = off"},
              &Options::expect_miss_below, -1, 1)
        .toggle({"--expect-bounded", "", "", "",
                 "validate: exit 1 if any simulated quantile\n"
                 "exceeds its analytic bound"},
                &Options::expect_bounded, true);
    return t;
  }();
  return join({check_sweep_options().bind(opt.sweep, {"--protocol"}),
               run_options().bind(opt.run, {"--json"}), {kernel_option()},
               tool.bind(opt)});
}

constexpr const char* kUsage =
    "usage: mcan-rta [analyze|compare|validate] [options]\n"
    "\n"
    "Probabilistic schedulability analysis of a periodic CAN message\n"
    "set: deterministic Tindell/Davis response-time bounds, plus\n"
    "response-time distributions and deadline-miss probabilities under\n"
    "the per-variant error model (docs/RTA.md).\n"
    "\n"
    "commands:\n"
    "  analyze    one protocol (the first --protocol; default: can)\n"
    "  compare    every protocol of the sweep set side by side\n"
    "  validate   analysis vs. bit-level simulation with injected faults\n";

MeasuredRates resolve_rates(const Options& opt) {
  MeasuredRates rates;
  rates.ber = opt.ber;
  if (opt.rates_path.empty()) return rates;
  RateTable table;
  std::string error;
  if (!RateTable::load(opt.rates_path, table, error)) {
    throw std::runtime_error("mcan-rta: " + error);
  }
  rates = table.rates_for(opt.ber);
  if (rates.ber != opt.ber) {
    std::fprintf(stderr,
                 "mcan-rta: using measured row ber=%s (nearest to "
                 "requested %s)\n",
                 sci(rates.ber, 2).c_str(), sci(opt.ber, 2).c_str());
  }
  return rates;
}

void print_analysis(const ProbRtaResult& res) {
  std::printf("-- %s  (ber %s, calibration %.3f, rates: %s) --\n",
              res.proto.name().c_str(), sci(res.rates.ber, 2).c_str(),
              res.rates.calibration, res.rates.source.c_str());
  std::vector<std::vector<std::string>> cells;
  cells.push_back({"stream", "T", "C", "B", "R det", "p50", "p99", "p99.99",
                   "P{miss}", "sched"});
  for (const ProbRtaRow& r : res.rows) {
    auto qcell = [&](double q) {
      const BitTime v = r.quantile(q);
      return v == kNoTime ? std::string("-") : std::to_string(v);
    };
    cells.push_back({r.det.msg.name, std::to_string(r.det.msg.period),
                     std::to_string(r.det.c_bits),
                     std::to_string(r.det.blocking),
                     std::to_string(r.det.response), qcell(0.5), qcell(0.99),
                     qcell(0.9999), sci(r.miss_prob, 2),
                     r.det.schedulable ? "yes" : "NO"});
  }
  std::printf("%s", render_table(cells).c_str());
  std::printf("utilisation %.1f%%, worst stream P{miss} = %s\n\n",
              100 * res.utilisation, sci(res.max_miss_prob, 3).c_str());
}

/// Apply the --expect-* gates; returns the process exit code.
int apply_gates(const Options& opt, const std::vector<ProbRtaResult>& results,
                bool bounded_ok) {
  int rc = 0;
  for (const ProbRtaResult& res : results) {
    if (opt.expect_schedulable && !res.deterministic_schedulable) {
      std::fprintf(stderr,
                   "mcan-rta: GATE FAILED: %s is not deterministically "
                   "schedulable\n",
                   res.proto.name().c_str());
      rc = 1;
    }
    if (opt.expect_miss_below >= 0 &&
        !(res.max_miss_prob < opt.expect_miss_below)) {
      std::fprintf(stderr,
                   "mcan-rta: GATE FAILED: %s worst P{miss} %s is not "
                   "below %s\n",
                   res.proto.name().c_str(), sci(res.max_miss_prob).c_str(),
                   sci(opt.expect_miss_below).c_str());
      rc = 1;
    }
  }
  if (opt.expect_bounded && !bounded_ok) {
    std::fprintf(stderr,
                 "mcan-rta: GATE FAILED: a simulated quantile exceeded its "
                 "analytic bound\n");
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;
  if (const int rc = parse_flags("mcan-rta", argc, argv, bind_options(opt),
                                 kUsage, &positional);
      rc >= 0) {
    return rc;
  }
  if (positional.size() > 1) {
    std::fprintf(stderr, "mcan-rta: more than one command (see --help)\n");
    return 2;
  }
  if (!positional.empty()) opt.command = positional.front();
  if (opt.command != "analyze" && opt.command != "compare" &&
      opt.command != "validate") {
    std::fprintf(stderr, "mcan-rta: unknown command %s (see --help)\n",
                 opt.command.c_str());
    return 2;
  }
  try {
    const MeasuredRates rates = resolve_rates(opt);
    const std::vector<RtaMessage> set =
        scale_periods(sae_benchmark_set(), opt.period_scale);
    ProbRtaOptions popt;
    popt.max_retx = opt.max_retx;

    std::vector<ProtocolParams> protocols;
    if (opt.command == "analyze") {
      protocols = {opt.sweep.protocols.empty() ? ProtocolParams::standard_can()
                                               : opt.sweep.protocols.front()};
    } else {
      protocols = opt.sweep.protocol_set();
    }

    std::vector<ProbRtaResult> results;
    bool bounded_ok = true;
    std::string json = "{\"results\": [";
    for (std::size_t pi = 0; pi < protocols.size(); ++pi) {
      const ProtocolParams& proto = protocols[pi];
      ProbRtaResult res = probabilistic_rta(set, proto, rates, popt);
      print_analysis(res);
      if (pi) json += ",";
      json += "\n" + res.to_json();
      if (opt.command == "validate") {
        const SimValidation sim = simulate_response_times(
            set, proto, rates.effective_ber(), opt.horizon, opt.seed);
        const auto verdicts = compare_quantiles(res, sim, opt.slack);
        std::vector<std::vector<std::string>> cells;
        cells.push_back({"stream", "q", "analytic", "simulated", "ok"});
        for (const ValidationVerdict& v : verdicts) {
          char qbuf[32];
          std::snprintf(qbuf, sizeof(qbuf), "%g", v.q);
          cells.push_back({v.stream, qbuf, std::to_string(v.analytic),
                           std::to_string(v.simulated),
                           v.ok ? "yes" : "NO"});
          bounded_ok &= v.ok;
        }
        std::printf("validation (horizon %llu bits, seed %llu):\n%s\n",
                    static_cast<unsigned long long>(opt.horizon),
                    static_cast<unsigned long long>(opt.seed),
                    render_table(cells).c_str());
      }
      results.push_back(std::move(res));
    }
    json += "\n]}\n";

    if (!opt.run.json.empty()) {
      if (!write_text_file("mcan-rta", opt.run.json, json)) return 2;
      std::printf("json written to %s\n", opt.run.json.c_str());
    }
    return apply_gates(opt, results, bounded_ok);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcan-rta: %s\n", e.what());
    return 2;
  }
}
