// Beyond the paper's error model: bursty (Gilbert-Elliott) channels versus
// the randomly-distributed disturbances the m-budget is designed for.
//
// The paper chooses m = 5 for *randomly distributed* errors (matching the
// CRC's guarantee).  Common-mode EMI bursts concentrate many flips into a
// few bit times, so a single burst can exceed any fixed m.  This bench
// soaks each protocol under an iid channel and under a bursty channel with
// the SAME average flip rate, and reports AB violations — quantifying how
// much of MajorCAN's advantage survives burstiness and what m would have
// to become (cf. examples/tune_m) or when replication (bench_dualbus) is
// the right tool instead.
#include <cstdio>

#include "analysis/properties.hpp"
#include "analysis/tagged.hpp"
#include "core/network.hpp"
#include "fault/burst_faults.hpp"
#include "fault/random_faults.hpp"
#include "util/options.hpp"
#include "util/text.hpp"

namespace {

using namespace mcan;

struct SoakOutcome {
  AbReport report;
  long long injected = 0;
};

SoakOutcome soak(const ProtocolParams& proto, FaultInjector& inj,
                 const std::function<long long()>& injected, int frames,
                 std::uint64_t /*seed*/) {
  const int n_nodes = 6;
  const int senders = 3;
  Network net(n_nodes, proto);
  net.set_injector(inj);

  std::vector<BroadcastRecord> broadcasts;
  std::map<NodeId, DeliveryJournal> journals;
  for (int i = 0; i < n_nodes; ++i) {
    journals.emplace(static_cast<NodeId>(i), DeliveryJournal{});
    auto& journal = journals.at(static_cast<NodeId>(i));
    net.node(i).add_delivery_handler([&journal](const Frame& f, BitTime t) {
      if (auto tag = parse_tag(f)) journal.push_back({tag->key, t});
    });
  }
  for (int i = 0; i < senders; ++i) {
    auto& journal = journals.at(static_cast<NodeId>(i));
    net.node(i).add_tx_done_handler([&journal](const Frame& f, BitTime t) {
      if (auto tag = parse_tag(f)) journal.push_back({tag->key, t});
    });
  }

  std::vector<int> seq(senders, 0);
  const int per_sender = frames / senders;
  const BitTime horizon = static_cast<BitTime>(per_sender) * 600 + 50;
  for (BitTime t = 0; t < horizon; ++t) {
    for (int i = 0; i < senders; ++i) {
      if ((t + static_cast<BitTime>(i) * 113) % 600 == 0 &&
          seq[static_cast<std::size_t>(i)] < per_sender) {
        const auto s =
            static_cast<std::uint16_t>(++seq[static_cast<std::size_t>(i)]);
        const MessageKey key{static_cast<NodeId>(i), s};
        broadcasts.push_back({key, static_cast<NodeId>(i)});
        net.node(i).enqueue(make_tagged_frame(
            0x100 + static_cast<std::uint32_t>(i), MsgKind::Data, key));
      }
    }
    net.sim().step();
  }
  net.run_until_quiet(120000);

  std::set<NodeId> correct;
  for (int i = 0; i < n_nodes; ++i) {
    if (net.node(i).active()) correct.insert(static_cast<NodeId>(i));
  }
  SoakOutcome out;
  out.report = check_atomic_broadcast(broadcasts, journals, correct);
  out.injected = injected();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int frames = 600;
  if (!positional_number("bench_burst", argc, argv, 1, 1, 100000000, frames)) {
    return 2;
  }

  BurstParams burst;
  burst.p_good_to_bad = 5e-5;
  burst.p_bad_to_good = 0.2;  // mean burst ~5 bits
  burst.flip_bad = 0.5;
  const double rate = burst.average_rate();

  std::printf("=== iid vs bursty disturbances at the same average rate ===\n");
  std::printf("average flip rate %.2e per node-bit; bursts: mean ~5 bits at "
              "flip 0.5\n%d frames per cell; entries: AB2 / AB3 / AB5 counts "
              "(flips injected)\n\n", rate, frames);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"protocol", "iid channel", "bursty channel"});
  for (auto proto : {ProtocolParams::standard_can(), ProtocolParams::minor_can(),
                     ProtocolParams::major_can(5), ProtocolParams::major_can(8)}) {
    std::vector<std::string> row = {proto.name()};
    {
      RandomFaults inj(rate, Rng(404, 1));
      auto out = soak(proto, inj, [&] { return inj.injected(); }, frames, 1);
      row.push_back(std::to_string(out.report.agreement_violations) + "/" +
                    std::to_string(out.report.duplicate_deliveries) + "/" +
                    std::to_string(out.report.order_inversions) + " (" +
                    std::to_string(out.injected) + ")");
    }
    {
      BurstFaults inj(burst, Rng(404, 2));
      auto out = soak(proto, inj, [&] { return inj.injected(); }, frames, 2);
      row.push_back(std::to_string(out.report.agreement_violations) + "/" +
                    std::to_string(out.report.duplicate_deliveries) + "/" +
                    std::to_string(out.report.order_inversions) + " (" +
                    std::to_string(out.injected) + ")");
    }
    rows.push_back(row);
  }
  std::printf("%s\n", render_table(rows).c_str());

  std::printf(
      "reading: most disturbances — iid or burst — are globalised by\n"
      "ordinary error frames (everyone rejects, the frame is\n"
      "retransmitted), so the violation counts stay small everywhere.  The\n"
      "residual iid violations land on MajorCAN_5 and they are the\n"
      "stuffing-desynchronisation finding (DESIGN.md section 7): a body\n"
      "flip delays a receiver's flag into the second sub-field, where\n"
      "MajorCAN — unlike plain CAN, which mostly just retransmits — reads\n"
      "it as an acceptance notification.  Note that MajorCAN_8 is clean:\n"
      "a wider first sub-field also absorbs deeper delayed flags, so\n"
      "raising m defends against this finding too.  For common-mode\n"
      "bursts longer than any affordable m, media replication\n"
      "(bench_dualbus) is the complementary defence.\n");
  return 0;
}
