#include "scenario/exhaustive.hpp"

#include <stdexcept>

#include "scenario/model_check.hpp"

namespace mcan {

int ExhaustiveConfig::window_hi() const {
  if (win_hi_rel) return *win_hi_rel;
  if (protocol.variant == Variant::MajorCan) return 3 * protocol.m + 5;
  return protocol.eof_bits() + 3;  // EOF + intermission
}

void ExhaustiveConfig::validate() const {
  protocol.validate();
  if (n_nodes < 2 || n_nodes > 16) {
    throw std::invalid_argument(
        "exhaustive: n_nodes must be in [2, 16], got " +
        std::to_string(n_nodes));
  }
  if (errors < 1) {
    throw std::invalid_argument(
        "exhaustive: error budget k must be >= 1, got " +
        std::to_string(errors));
  }
  check_probe_window(protocol, win_lo_rel, window_hi());
}

std::string Counterexample::to_string() const {
  std::string s = "flips:";
  for (const auto& [node, pos] : flips) {
    s += " (node " + std::to_string(node) + ", EOF" +
         (pos >= 0 ? "+" : "") + std::to_string(pos) + ")";
  }
  s += " => " + outcome;
  return s;
}

ModelCheckResult run_exhaustive(const ExhaustiveConfig& cfg, int max_examples) {
  // Reference semantics: the model-checking engine with every reduction
  // disabled degenerates to the original single-threaded lexicographic
  // enumerator (tests pin this equivalence).
  ModelCheckConfig mc;
  mc.base = cfg;
  mc.jobs = 1;
  mc.dedup = false;
  mc.symmetry = false;
  mc.max_cases = 0;
  mc.max_examples = max_examples;
  return run_model_check(mc);
}

}  // namespace mcan
