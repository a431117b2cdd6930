// Interactive-ish tool: run any paper scenario under any protocol variant
// and dump the full bit-level timeline plus the event log — the fastest way
// to *see* the protocols work.
//
// usage: trace_explorer [scenario] [variant] [m]
//   scenario: fig1a | fig1b | fig1c | fig3 | fig5 | order   (default fig3)
//   variant : can | minor | major                           (default can)
//   m       : MajorCAN tolerance parameter                  (default 5)
// or:    trace_explorer run <file.scn>
//   runs a scenario written in the DSL (see scenarios/*.scn).
#include <cstdio>
#include <cstring>
#include <string>

#include "scenario/dsl.hpp"
#include "scenario/figures.hpp"
#include "util/options.hpp"

namespace {

using namespace mcan;

void usage() {
  std::printf(
      "usage: trace_explorer [fig1a|fig1b|fig1c|fig3|fig5|order] "
      "[can|minor|major] [m]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scenario = argc > 1 ? argv[1] : "fig3";
  const std::string variant = argc > 2 ? argv[2] : "can";
  int m = 5;
  if (scenario != "run" &&
      !positional_number("trace_explorer", argc, argv, 3, 3, 31, m)) {
    return 1;
  }

  if (scenario == "run") {
    if (argc < 3) {
      usage();
      return 1;
    }
    try {
      const ScenarioSpec spec = load_scenario_file(argv[2]);
      const DslRunResult res = run_scenario(spec, {}, /*trace=*/true);
      std::printf("%s\n", res.outcome.summary().c_str());
      std::printf("%s: %s\n\n", res.expectation_text.c_str(),
                  res.expectation_met ? "MET" : "NOT MET");
      std::printf("%s\n", res.outcome.trace.c_str());
      return res.expectation_met ? 0 : 2;
    } catch (const std::invalid_argument& e) {
      std::printf("error: %s\n", e.what());
      return 1;
    }
  }

  ProtocolParams p;
  if (variant == "can") {
    p = ProtocolParams::standard_can();
  } else if (variant == "minor") {
    p = ProtocolParams::minor_can();
  } else if (variant == "major") {
    p = ProtocolParams::major_can(m);
  } else {
    usage();
    return 1;
  }

  if (scenario == "order") {
    auto r = run_order_scenario(p);
    std::printf("%s\n", r.summary().c_str());
    return 0;
  }

  ScenarioOutcome r;
  if (scenario == "fig1a") {
    r = run_fig1a(p);
  } else if (scenario == "fig1b") {
    r = run_fig1b(p);
  } else if (scenario == "fig1c") {
    r = run_fig1c(p);
  } else if (scenario == "fig3") {
    r = run_fig3(p);
  } else if (scenario == "fig5") {
    r = run_fig5(m);
  } else {
    usage();
    return 1;
  }

  std::printf("%s\n\n", r.summary().c_str());
  std::printf("legend: r/d = node's view, UPPERCASE = node drives dominant,\n");
  std::printf("        '*' band = disturbed view bit, '.' = node off\n\n");
  std::printf("%s\n", r.trace.c_str());
  std::printf("events:\n");
  for (const std::string& n : r.notes) std::printf("%s", n.c_str());
  return 0;
}
