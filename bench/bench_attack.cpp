// Adversarial strength benchmark: how much targeted disturbance does each
// protocol variant withstand?
//
// For every variant in the sweep set and every bus size, two numbers:
//
//   * the minimum targeted glitch budget that defeats atomic broadcast
//     (attack/optimize.hpp — heuristic contiguous-run candidates, then the
//     exhaustive model-check grid; budgets below the minimum are certified
//     clean exhaustively whenever the case budget allows), and
//   * the error-frame flooder's certified time-to-bus-off: corrupted
//     transmission attempts until fault confinement removes the victim,
//     and the bit time at which it happens.
//
// The defaults keep the run CI-sized by capping the exhaustive pass per
// budget level (--budget, default 500000 cases); MajorCAN_5's k = 5 level
// alone is ~17M patterns, so its below-minimum certification is bounded
// unless you raise the cap.
//
//     bench_attack --json BENCH_attack.json
//     bench_attack --protocol major:5 --nodes 3 --budget 20000000
#include <cstdio>
#include <string>
#include <vector>

#include "attack/optimize.hpp"
#include "scenario/model_check.hpp"
#include "sim/kernel.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

/// Probe budgets 1..max for one (variant, N) cell.
struct Cell {
  ProtocolParams protocol;
  int n_nodes = 3;
  MinBudgetResult min_budget;
  AttackReport busoff;
};

int max_budget_for(const ProtocolParams& p) {
  // The paper's envelope theorem says MajorCAN_m absorbs m disturbances,
  // so the defeating budget can sit at m + 1; the classic variants fall
  // within 2.  One level of headroom keeps "no pattern found" meaningful.
  return p.variant == Variant::MajorCan ? p.m + 2 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  CheckSweep sweep;
  // --budget is the sweep's case cap per budget level.  The default is a
  // bounded pass sized for CI; 0 certifies exhaustively.
  sweep.budget = 500000;
  RunOptions run;
  if (const int rc = parse_flags(
          "bench_attack", argc, argv,
          join({check_sweep_options().bind(
                    sweep, {"--protocol", "--nodes", "--budget"}),
                run_options().bind(run, {"--jobs", "--window", "--json"}),
                {kernel_option()}}),
          "usage: bench_attack [options]\n");
      rc >= 0) {
    return rc;
  }
  const std::vector<ProtocolParams> protocols = sweep.protocol_set();
  // Default grid N = {3, 5}; an explicit --nodes narrows to that size.
  const std::vector<int> node_counts =
      sweep.nodes != 3 ? std::vector<int>{sweep.nodes}
                       : std::vector<int>{3, 5};

  BudgetProbeOptions po;
  po.jobs = run.jobs;
  po.max_cases = sweep.budget;
  if (run.window) po.win_lo = run.window->first;

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"protocol", "N", "defeating budget", "certified below",
                  "busoff attempts", "busoff t"});
  std::string json = "{\"max_cases_per_budget\": " +
                     std::to_string(po.max_cases) + ", \"cells\": [";
  bool first = true;
  for (const ProtocolParams& proto : protocols) {
    for (const int n : node_counts) {
      Cell c;
      c.protocol = proto;
      c.n_nodes = n;
      c.min_budget =
          find_min_defeating_budget(proto, n, max_budget_for(proto), po);
      c.busoff = measure_time_to_busoff(proto, n);
      std::printf("%s\n  bus-off: %s\n", c.min_budget.summary().c_str(),
                  c.busoff.summary().c_str());

      rows.push_back(
          {proto.name(), std::to_string(n),
           c.min_budget.budget < 0 ? "none" :
                                     std::to_string(c.min_budget.budget),
           c.min_budget.clean_below_certified() ? "exhaustive" : "bounded",
           std::to_string(c.busoff.busoff_attempts),
           std::to_string(c.busoff.busoff_t)});

      if (!first) json += ",";
      first = false;
      json += "\n  {\"protocol\": \"" + proto.name() +
              "\", \"nodes\": " + std::to_string(n) +
              ", \"min_defeating_budget\": " +
              std::to_string(c.min_budget.budget) +
              ", \"clean_below_certified\": " +
              (c.min_budget.clean_below_certified() ? "true" : "false") +
              ", \"busoff_attempts\": " +
              std::to_string(c.busoff.busoff_attempts) +
              ", \"victim_peak_tec\": " +
              std::to_string(c.busoff.victim_peak_tec) +
              ", \"busoff_t\": " + std::to_string(c.busoff.busoff_t) +
              ", \"probes\": [";
      for (std::size_t i = 0; i < c.min_budget.probes.size(); ++i) {
        const BudgetProbe& p = c.min_budget.probes[i];
        if (i) json += ", ";
        json += "{\"k\": " + std::to_string(p.k) +
                ", \"cases\": " + std::to_string(p.cases) +
                ", \"exhaustive\": " + (p.exhaustive ? "true" : "false") +
                ", \"violation\": " + (p.violation ? "true" : "false") + "}";
      }
      json += "]}";
    }
  }
  json += "\n]}\n";
  std::printf("%s", render_table(rows).c_str());

  if (!run.json.empty()) {
    if (!write_text_file("bench_attack", run.json, json)) return 2;
    std::printf("json written to %s\n", run.json.c_str());
  }
  return 0;
}
