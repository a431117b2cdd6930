// Exhaustive search + replay: find the first error pattern that breaks a
// protocol, then replay it with a full bit-level trace — watching a
// machine-discovered counterexample unfold is the best way to understand
// why the paper's scenarios matter.
//
// usage: replay_counterexample [can|minor|major] [k] [m]
#include <cstdio>
#include <string>

#include "core/network.hpp"
#include "fault/scripted.hpp"
#include "scenario/exhaustive.hpp"
#include "scenario/probe.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace mcan;

  const std::string variant = argc > 1 ? argv[1] : "can";
  int k = 2;
  int m = 5;
  if (!positional_number("replay_counterexample", argc, argv, 2, 1, 16, k) ||
      !positional_number("replay_counterexample", argc, argv, 3, 3, 31, m)) {
    return 1;
  }

  ProtocolParams proto;
  if (variant == "can") {
    proto = ProtocolParams::standard_can();
  } else if (variant == "minor") {
    proto = ProtocolParams::minor_can();
  } else if (variant == "major") {
    proto = ProtocolParams::major_can(m);
  } else {
    std::printf("usage: replay_counterexample [can|minor|major] [k] [m]\n");
    return 1;
  }

  std::printf("searching all %d-error patterns against %s...\n", k,
              proto.name().c_str());
  ExhaustiveConfig cfg;
  cfg.protocol = proto;
  cfg.n_nodes = 3;
  cfg.errors = k;
  auto res = run_exhaustive(cfg, 1);
  std::printf("%s\n\n", res.summary().c_str());

  if (res.examples.empty()) {
    std::printf(
        "no counterexample exists in this window — for MajorCAN_m and\n"
        "k <= m that is the expected (verified) outcome.\n");
    return 0;
  }

  const Counterexample& ce = res.examples.front();
  std::printf("replaying the first counterexample:\n  %s\n\n",
              ce.to_string().c_str());

  // Re-run that exact pattern with tracing on.
  Network net(cfg.n_nodes, proto);
  net.enable_trace();
  const int eof_start = model_check_eof_start(proto);
  ScriptedFaults inj;
  for (const auto& [node, pos] : ce.flips) {
    inj.add(FaultTarget::at_time(node, static_cast<BitTime>(eof_start + pos)));
  }
  net.set_injector(inj);
  net.node(0).enqueue(model_check_frame());
  net.run_until_quiet(kProbeQuietBudget);

  const BitTime from = static_cast<BitTime>(eof_start > 8 ? eof_start - 8 : 0);
  std::printf("%s\n", net.trace()
                          .render(net.labels(), from,
                                  std::min<BitTime>(net.sim().now(), from + 70))
                          .c_str());
  std::printf("node 0 = transmitter; deliveries:");
  for (int i = 1; i < net.size(); ++i) {
    std::printf(" node%d=%zu", i, net.deliveries(i).size());
  }
  std::printf("; tx attempts=%zu successes=%zu\n",
              net.log().count(EventKind::SofSent, 0),
              net.log().count(EventKind::TxSuccess, 0));
  return 0;
}
