// End-to-end validation of the paper's probability model: the hourly IMO
// rates of Table 1 come from expression (4) evaluated analytically; here
// the *executable bus* is run for many frames under iid ber* noise and the
// inconsistent-omission rate is measured directly, at elevated ber so the
// statistics converge.  bench_prob_model validates the combinatorics of
// expression (4) in isolation; this bench validates it through the whole
// simulator — and honestly shows where the simulated bus finds *more*
// inconsistencies than the model: the expression counts only the exact
// Fig. 3a pattern, while the real machine also exposes crash-free
// duplicates and the stuffing-desync channel (DESIGN.md §7).
#include <cstdio>

#include "analysis/prob_model.hpp"
#include "core/network.hpp"
#include "fault/random_faults.hpp"
#include "scenario/probe.hpp"
#include "sim/kernel.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

struct Measured {
  long frames = 0;
  long imo = 0;
  long dup = 0;
};

Measured measure(const ProtocolParams& proto, int n_nodes, double ber_star,
                 long frames, std::uint64_t seed) {
  Measured out;
  Rng master(seed, 0xF1E1D);
  for (long f = 0; f < frames; ++f) {
    Network net(n_nodes, proto);
    RandomFaults inj(ber_star, master.split(static_cast<std::uint64_t>(f)));
    net.set_injector(inj);
    net.node(0).enqueue(model_check_frame());
    // Quiesce with the noise still on (the paper's model is a continuously
    // disturbed bus), bounded to avoid rare livelocks at high ber.
    const RunEnd end = finish_run(net, 0, 4000);
    if (!end.quiet) continue;
    ++out.frames;
    const ProbeVerdict v =
        classify_probe(end.deliveries, end.tx_success > 0, false);
    if (v.imo) ++out.imo;
    if (v.dup) ++out.dup;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions run;
  long frames = 30000;
  OptionTable<long> frames_option;
  frames_option.integer({"--frames", "", "", "N", "simulated frames per cell"},
                        [](auto& n) -> auto& { return n; }, 1, 1000000000);
  if (const int rc = parse_flags(
          "bench_imo_rate", argc, argv,
          join({frames_option.bind(frames), run_options().bind(run, {"--json"}),
                {kernel_option()}}),
          "usage: bench_imo_rate [options]\n");
      rc >= 0) {
    return rc;
  }
  const int n = 5;

  std::printf("=== Measured IMO rate vs expression (4), through the bus ===\n");
  std::printf("%d nodes, %ld frames per cell, iid per-node noise\n\n", n,
              frames);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"ber*", "analytic P4/frame", "CAN IMO/frame",
                  "CAN dup/frame", "MajorCAN_5 IMO/frame",
                  "MajorCAN_8 IMO/frame"});
  std::string json = "{\"frames_per_cell\": " + std::to_string(frames) +
                     ", \"n_nodes\": " + std::to_string(n) + ", \"rows\": [";
  bool json_first = true;
  for (double bs : {2e-3, 1e-3, 5e-4}) {
    ModelParams p;
    p.n_nodes = n;
    // The tagged 4-byte frame is ~86 wire bits.
    p.frame_bits = 86;
    p.ber = bs * n;
    const double analytic = p_new_scenario_per_frame(p);

    const Measured can = measure(ProtocolParams::standard_can(), n, bs,
                                 frames, 0xCA11);
    const Measured m5 = measure(ProtocolParams::major_can(5), n, bs,
                                frames, 0xCA11);
    const Measured m8 = measure(ProtocolParams::major_can(8), n, bs,
                                frames, 0xCA11);
    auto rate = [](long k, long tot) {
      return tot ? static_cast<double>(k) / static_cast<double>(tot) : 0.0;
    };
    rows.push_back({sci(bs, 2), sci(analytic),
                    sci(rate(can.imo, can.frames)),
                    sci(rate(can.dup, can.frames)),
                    sci(rate(m5.imo, m5.frames)),
                    sci(rate(m8.imo, m8.frames))});
    if (!json_first) json += ",";
    json_first = false;
    json += "\n  {\"ber_star\": " + sci(bs, 12) +
            ", \"analytic_p4\": " + sci(analytic, 12) +
            ", \"can_imo\": " + sci(rate(can.imo, can.frames), 12) +
            ", \"can_dup\": " + sci(rate(can.dup, can.frames), 12) +
            ", \"major5_imo\": " + sci(rate(m5.imo, m5.frames), 12) +
            ", \"major8_imo\": " + sci(rate(m8.imo, m8.frames), 12) + "}";
  }
  json += "\n]}\n";
  std::printf("%s\n", render_table(rows).c_str());

  if (!run.json.empty()) {
    if (!write_text_file("bench_imo_rate", run.json, json)) return 2;
    std::printf("json written to %s\n", run.json.c_str());
  }

  std::printf(
      "reading (the sharpest finding of this reproduction, DESIGN.md §7):\n"
      "standard CAN's measured omission rate sits above the expression-(4)\n"
      "value, as it must — the expression counts only the exact Fig. 3a\n"
      "pattern.  But MajorCAN_5's omission rate is *higher than CAN's*\n"
      "here: a single body flip can desynchronise a receiver's destuffer,\n"
      "and its late stuff-error flag surfaces around EOF bits 5..6 — which\n"
      "m = 5 reads as an acceptance notification (omission at that node),\n"
      "whereas CAN reads it as an error and retransmits (a duplicate).\n"
      "Because one flip suffices, this channel scales linearly with ber\n"
      "and dominates the quadratic Fig.-3a pattern at every rate.  The\n"
      "MajorCAN_8 column shows the structural fix: desynchronised flags\n"
      "surface at most ~7 positions into the EOF, so a first sub-field of\n"
      ">= 8 bits keeps them on the rejecting side and the omission rate\n"
      "collapses to (near) zero.  On real receiver machinery the paper's\n"
      "m = 5 is therefore not sufficient; m must also exceed the maximum\n"
      "parser-resynchronisation delay (~8 for CAN framing).\n");
  return 0;
}
