// Ablation study of MajorCAN's design choices (DESIGN.md §5): each knob is
// reverted to a naive alternative and pushed through the frame-tail
// fault-injection campaign.  Entries are IMO / double-rx / total-loss per
// `trials` trials — the paper's design (first row) must stay 0/0/0 through
// k = m; each ablation shows where and why its naive variant breaks.
#include <cstdio>

#include "scenario/campaign.hpp"
#include "scenario/figures.hpp"
#include "util/options.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

struct Config {
  std::string name;
  ProtocolParams proto;
};

}  // namespace

int main(int argc, char** argv) {
  int trials = 6000;
  if (!positional_number("bench_ablation", argc, argv, 1, 1, 100000000,
                         trials)) {
    return 2;
  }
  const int m = 5;

  std::vector<Config> configs;
  configs.push_back({"paper design (m=5)", ProtocolParams::major_can(m)});
  {
    auto p = ProtocolParams::major_can(m);
    p.suppress_second_errors = false;
    configs.push_back({"no second-error suppression", p});
  }
  {
    auto p = ProtocolParams::major_can(m);
    p.delimiter = DelimiterMode::ConvergentCount;
    configs.push_back({"convergent-count delimiter", p});
  }
  {
    auto p = ProtocolParams::major_can(m);
    p.delimiter = DelimiterMode::EagerCount;
    configs.push_back({"eager-count delimiter", p});
  }
  {
    auto p = ProtocolParams::major_can(m);
    p.first_subfield_override = m - 2;
    configs.push_back({"first sub-field m-2 bits", p});
  }
  {
    auto p = ProtocolParams::major_can(m);
    p.majority_override = 2;  // far below the strict majority m
    configs.push_back({"vote threshold 2 (too low)", p});
  }
  {
    auto p = ProtocolParams::major_can(m);
    p.majority_override = 2 * m - 2;  // near-unanimity
    configs.push_back({"vote threshold 2m-2 (too high)", p});
  }

  std::printf("=== MajorCAN design ablations: frame-tail campaign ===\n");
  std::printf("5 nodes, %d trials/cell; entries: IMO/double-rx/total-loss\n\n",
              trials);

  std::vector<std::vector<std::string>> rows;
  {
    std::vector<std::string> head = {"configuration"};
    for (int k = 1; k <= m; ++k) head.push_back("k=" + std::to_string(k));
    head.push_back("Fig5 ok");
    head.push_back("CRC-delay ok");
    rows.push_back(head);
  }

  for (const Config& c : configs) {
    std::vector<std::string> row = {c.name};
    for (int k = 1; k <= m; ++k) {
      CampaignConfig cfg;
      cfg.protocol = c.proto;
      cfg.n_nodes = 5;
      cfg.trials = trials;
      cfg.errors = k;
      // Include the delimiter/recovery region so delimiter ablations are
      // actually exercised (the paper's design must survive there too).
      cfg.window = FaultWindow::TailAndRecovery;
      cfg.seed = 0xAB1A7E00u + static_cast<std::uint64_t>(k);
      auto res = run_eof_campaign_parallel(cfg);
      row.push_back(std::to_string(res.imo) + "/" +
                    std::to_string(res.double_rx) + "/" +
                    std::to_string(res.total_loss) +
                    (res.timeouts ? "!" : ""));
    }
    // The scripted Fig. 5 scenario under this configuration.
    auto fig5 = run_eof_scenario(
        "fig5", c.proto, 4,
        {FaultTarget::eof_bit(1, 2), FaultTarget::eof_bit(0, 3),
         FaultTarget::eof_bit(0, 4),
         FaultTarget::eof_relative(1, c.proto.sample_begin() + 1),
         FaultTarget::eof_relative(1, c.proto.sample_begin() + 3)});
    row.push_back(fig5.consistent_single_delivery() ? "yes" : "NO");
    // The sizing worst case: a CRC-error flag delayed by m-1 view errors.
    auto crc = run_crc_delay_scenario(c.proto);
    row.push_back(!crc.imo() && !crc.double_reception() ? "yes" : "NO");
    rows.push_back(row);
  }
  std::printf("%s\n", render_table(rows).c_str());

  std::printf(
      "reading: every naive variant loses the guarantee somewhere inside\n"
      "the k <= m budget ('!' marks trials that failed to quiesce):\n"
      "  - without second-error suppression, stray dominant bits in the\n"
      "    end-game trigger fresh flags that wreck the agreement round;\n"
      "  - both weaker delimiters let a single well-placed disturbance\n"
      "    desynchronise a node from the retransmission;\n"
      "  - a narrow first sub-field lets delayed CRC-error flags be read\n"
      "    as acceptance notifications;\n"
      "  - a low vote threshold accepts on noise (splitting against\n"
      "    rejecting nodes), a near-unanimous one rejects on noise\n"
      "    (splitting against extenders).\n");
  return 0;
}
