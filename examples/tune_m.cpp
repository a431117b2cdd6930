// Choosing MajorCAN's m for your bus (paper §5: "if ber is larger then
// larger values of m should be considered").
//
// usage: tune_m [ber] [nodes] [frame_bits] [target_per_hour]
// defaults: the paper's reference bus and the 1e-9/h aerospace target.
#include <cstdio>

#include "analysis/tuning.hpp"
#include "util/options.hpp"
#include "util/text.hpp"

int main(int argc, char** argv) {
  using namespace mcan;

  ModelParams p;  // defaults: the paper's reference bus
  double target = 1e-9;
  if (!positional_number("tune_m", argc, argv, 1, 0.0, 1.0, p.ber) ||
      !positional_number("tune_m", argc, argv, 2, 2, 100000, p.n_nodes) ||
      !positional_number("tune_m", argc, argv, 3, 1, 100000, p.frame_bits) ||
      !positional_number("tune_m", argc, argv, 4, 0.0, 1.0, target)) {
    return 2;
  }

  std::printf("=== MajorCAN m selection ===\n");
  std::printf("bus: N=%d, tau=%d bits, ber=%s (ber*=%s), %.0f frames/hour\n",
              p.n_nodes, p.frame_bits, sci(p.ber, 2).c_str(),
              sci(p.ber_star(), 2).c_str(), p.frames_per_hour());
  std::printf("target residual exposure: %s per hour\n\n",
              sci(target, 2).c_str());

  std::printf("%s\n", render_tuning_table(tuning_table(p, 10)).c_str());

  const int m = recommend_m(p, target);
  std::printf("recommended: MajorCAN_%d (first m meeting the target)\n", m);
  std::printf(
      "\nthe paper's m = 5 matches the CRC's 5-error detection guarantee;\n"
      "run this tool with your environment's ber to see whether that also\n"
      "meets your dependability target, or how little the extra bits of a\n"
      "larger m cost.\n");
  return 0;
}
