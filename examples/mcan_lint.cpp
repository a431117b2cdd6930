// mcan-lint: replay scenario files (or parse VCD waveform dumps) through
// the protocol invariant analyzer and report every violation with bit-time
// and node provenance.
//
//     mcan-lint scenarios/*.scn          # full FSM-aware conformance pass
//     mcan-lint trace.vcd                # record-level rules (wired-AND)
//
// Exit status: 0 = all files clean, 1 = violations found, 2 = usage or
// file error.
#include <climits>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/invariants.hpp"
#include "rsm/runner.hpp"
#include "scenario/dsl.hpp"
#include "sim/kernel.hpp"
#include "sim/vcd.hpp"

namespace {

using namespace mcan;

struct Options {
  InvariantConfig cfg;
  bool verbose = false;
};

BoundOptions bind_options(Options& opt) {
  static const OptionTable<Options> table = [] {
    OptionTable<Options> t;
    const auto rule = [](bool InvariantConfig::*field) {
      return [field](auto& o) -> auto& { return o.cfg.*field; };
    };
    t.toggle({"--no-wired-and", "", "", "", "disable the wired-AND rule"},
             rule(&InvariantConfig::wired_and), false)
        .toggle({"--no-stuff", "", "", "", "disable stuff-rule conformance"},
                rule(&InvariantConfig::stuff_conformance), false)
        .toggle({"--no-flags", "", "", "", "disable error-flag legality"},
                rule(&InvariantConfig::flag_legality), false)
        .toggle({"--no-end-game", "", "", "", "disable end-game legality"},
                rule(&InvariantConfig::end_game), false)
        .toggle({"--no-counters", "", "", "",
                 "disable counter-transition checking"},
                rule(&InvariantConfig::counter_transitions), false)
        .toggle({"--no-reconvergence", "", "", "",
                 "disable frame-boundary agreement"},
                rule(&InvariantConfig::reconvergence), false)
        .integer({"--max", "", "", "N", "record at most N violations verbatim"},
                 [](auto& o) -> auto& { return o.cfg.max_recorded; }, 0,
                 LLONG_MAX)
        .toggle({"--verbose", "-v", "", "", "report clean files too"},
                &Options::verbose, true);
    return t;
  }();
  return join({table.bind(opt), {kernel_option()}});
}

constexpr const char* kUsage =
    "usage: mcan-lint [options] <file.scn|file.vcd> ...\n"
    "\n"
    "Replays each scenario file on a simulated bus (or reconstructs a\n"
    "recorded trace from a VCD dump) and checks the protocol invariants:\n"
    "wired-AND consistency, stuff-rule conformance, error-flag legality,\n"
    "end-game legality, fault-confinement counter transitions and\n"
    "cross-node reconvergence.  VCD input carries no FSM introspection,\n"
    "so only the record-level rules apply to it.\n";

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Replay one scenario file on a fresh bus; full rule set applies.  A
/// file with an `rsm` directive runs the full consensus workload — the
/// bus the invariants watch then carries the replicas' traffic.
InvariantReport lint_scenario(const std::string& path,
                              const InvariantConfig& cfg) {
  const ScenarioSpec spec = load_scenario_file(path);
  const DslRunResult run = run_any_scenario(spec, cfg);
  return run.invariants;
}

/// Reconstruct a dumped trace; only record-level rules can apply.
InvariantReport lint_vcd(const std::string& path, InvariantConfig cfg) {
  const VcdTrace trace = read_vcd_file(path);
  InvariantChecker checker({}, nullptr, cfg);
  for (const BitRecord& rec : trace.bits) checker.on_bit(rec);
  return checker.report();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> files;
  if (const int rc = parse_flags("mcan-lint", argc, argv, bind_options(opt),
                                 kUsage, &files);
      rc >= 0) {
    return rc;
  }
  if (files.empty()) {
    std::fprintf(stderr, "mcan-lint: no input files (see --help)\n");
    return 2;
  }

  bool any_violation = false;
  bool any_error = false;
  for (const std::string& path : files) {
    InvariantReport report;
    try {
      report = ends_with(path, ".vcd") ? lint_vcd(path, opt.cfg)
                                       : lint_scenario(path, opt.cfg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mcan-lint: %s: %s\n", path.c_str(), e.what());
      any_error = true;
      continue;
    }
    if (report.clean()) {
      if (opt.verbose) {
        std::printf("%s: clean (%llu bits checked)\n", path.c_str(),
                    static_cast<unsigned long long>(report.bits_checked));
      }
      continue;
    }
    any_violation = true;
    std::printf("%s: %s", path.c_str(), report.summary().c_str());
  }
  if (any_error) return 2;
  return any_violation ? 1 : 0;
}
