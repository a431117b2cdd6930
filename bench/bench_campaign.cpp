// The paper's §4/§5 claims as a randomized fault-injection experiment.
//
// Part 1 — link-level protocols: for k = 0..m+2 uniformly placed view-flips
// in the frame-tail window, measure the rate of inconsistent message
// omissions (AB2), double receptions (AB3) and total losses per protocol.
// The paper's claim: MajorCAN_m is clean through k = m; CAN and MinorCAN
// break from k = 1 (duplicates) and k = 2 (omissions).
//
// Part 2 — higher-level baselines under the scripted Fig. 1c and Fig. 3
// patterns: EDCAN survives both; RELCAN/TOTCAN only the first (§4: "the
// rest do not work because they only perform recovery actions in case the
// transmitter fails").
#include <cstdio>

#include "fault/scripted.hpp"
#include "higher/higher_network.hpp"
#include "scenario/campaign.hpp"
#include "util/options.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

AbReport run_higher_pattern(HigherKind kind, bool crash_tx) {
  HigherNetwork net(kind, 5, HostParams{600});
  ScriptedFaults inj;
  inj.add(FaultTarget::eof_bit(1, 5, 0));
  inj.add(FaultTarget::eof_bit(2, 5, 0));
  if (!crash_tx) inj.add(FaultTarget::eof_bit(0, 6, 0));  // Fig. 3 pattern
  net.link().set_injector(inj);
  net.host(0).broadcast(MessageKey{0, 1});
  if (crash_tx) net.link().sim().schedule_crash(0, 75);  // Fig. 1c pattern
  net.run_until_quiet();
  if (crash_tx) return net.check({1, 2, 3, 4});
  return net.check();
}

}  // namespace

int main(int argc, char** argv) {
  int trials = 20000;
  if (!positional_number("bench_campaign", argc, argv, 1, 1, 100000000,
                         trials)) {
    return 2;
  }

  std::printf("=== Fault-injection campaign: k random view-flips in the "
              "frame tail ===\n");
  std::printf("5 nodes, %d trials per cell; entries: IMO / double-rx / "
              "total-loss counts\n\n", trials);

  std::vector<ProtocolParams> protos = {
      ProtocolParams::standard_can(), ProtocolParams::minor_can(),
      ProtocolParams::major_can(3), ProtocolParams::major_can(5)};

  std::vector<std::vector<std::string>> rows;
  {
    std::vector<std::string> head = {"protocol"};
    for (int k = 0; k <= 7; ++k) head.push_back("k=" + std::to_string(k));
    rows.push_back(head);
  }
  for (const auto& proto : protos) {
    std::vector<std::string> row = {proto.name()};
    for (int k = 0; k <= 7; ++k) {
      CampaignConfig cfg;
      cfg.protocol = proto;
      cfg.n_nodes = 5;
      cfg.trials = trials;
      cfg.errors = k;
      cfg.window = FaultWindow::FrameTail;
      cfg.seed = 0x5EED0000u + static_cast<std::uint64_t>(k);
      auto res = run_eof_campaign_parallel(cfg);
      row.push_back(std::to_string(res.imo) + "/" +
                    std::to_string(res.double_rx) + "/" +
                    std::to_string(res.total_loss));
    }
    rows.push_back(row);
  }
  std::printf("%s\n", render_table(rows).c_str());
  std::printf(
      "reading: MajorCAN_m rows stay 0/0/0 through k = m (its design\n"
      "tolerance); standard CAN shows duplicates from k = 1 and omissions\n"
      "from k = 2 (the Fig. 3a pattern); MinorCAN kills the duplicates but\n"
      "not the k >= 2 omissions.\n\n");

  std::printf("=== Higher-level baselines: randomized campaign ===\n");
  std::printf("(k flips in the DATA frame tail; optional random tx crash)\n\n");
  {
    std::vector<std::vector<std::string>> h;
    h.push_back({"protocol", "k=1", "k=2", "k=2 + crashes"});
    for (HigherKind kind :
         {HigherKind::Edcan, HigherKind::Relcan, HigherKind::Totcan}) {
      std::vector<std::string> row = {higher_kind_name(kind)};
      for (int variant = 0; variant < 3; ++variant) {
        HigherCampaignConfig hc;
        hc.kind = kind;
        hc.trials = std::min(trials, 1500);
        hc.errors = variant == 0 ? 1 : 2;
        hc.crash_tx_randomly = variant == 2;
        hc.seed = 0x9A5E + static_cast<std::uint64_t>(variant);
        auto r = run_higher_campaign(hc);
        row.push_back("AB2:" + std::to_string(r.agreement_violations) +
                      " AB3:" + std::to_string(r.duplicate_trials) +
                      " AB5:" + std::to_string(r.order_trials));
      }
      h.push_back(row);
    }
    std::printf("%s\n", render_table(h).c_str());
  }

  std::printf("=== Higher-level baselines against the scripted patterns ===\n");
  std::vector<std::vector<std::string>> h;
  h.push_back({"protocol", "Fig 1c (tx crash)", "Fig 3 (tx correct)"});
  for (HigherKind kind :
       {HigherKind::Edcan, HigherKind::Relcan, HigherKind::Totcan}) {
    auto crash = run_higher_pattern(kind, true);
    auto fig3 = run_higher_pattern(kind, false);
    auto verdict = [](const AbReport& r) {
      return r.agreement_violations == 0 ? std::string("agreement holds")
                                         : std::string("AGREEMENT VIOLATED");
    };
    h.push_back({higher_kind_name(kind), verdict(crash), verdict(fig3)});
  }
  std::printf("%s\n", render_table(h).c_str());
  std::printf(
      "reading: all three baselines repair the transmitter-crash scenario\n"
      "they were designed for, but only EDCAN (eager diffusion) survives\n"
      "the new scenario in which the transmitter stays correct — and EDCAN\n"
      "does not provide total order, so none of them achieve Atomic\n"
      "Broadcast.  MajorCAN does (see the campaign above).\n");
  return 0;
}
