#include "scenario/campaign.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/tagged.hpp"
#include "core/network.hpp"
#include "fault/random_faults.hpp"
#include "fault/scripted.hpp"
#include "frame/layout.hpp"
#include "scenario/probe.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace mcan {

std::string CampaignResult::summary() const {
  std::string s = cfg.protocol.name();
  s += " errors=" + std::to_string(cfg.errors);
  s += " trials=" + std::to_string(trials);
  s += " | IMO=" + std::to_string(imo);
  s += " double-rx=" + std::to_string(double_rx);
  s += " total-loss=" + std::to_string(total_loss);
  s += " retransmissions=" + std::to_string(retransmissions);
  if (timeouts) s += " TIMEOUTS=" + std::to_string(timeouts);
  return s;
}

CampaignResult run_eof_campaign(const CampaignConfig& cfg) {
  return run_eof_campaign_range(cfg, 0, cfg.trials);
}

CampaignResult run_eof_campaign_range(const CampaignConfig& cfg, int first,
                                      int last) {
  CampaignResult res;
  res.cfg = cfg;

  Rng master(cfg.seed, 0x9d5c0f3a);
  const Frame frame = model_check_frame();
  const int eof_start = model_check_eof_start(cfg.protocol);
  const int wire_len = eof_start + cfg.protocol.eof_bits();

  // The frame starts at bit time 0 (node 0 holds the only pending frame).
  BitTime win_lo = 0;
  BitTime win_hi = 0;  // exclusive
  switch (cfg.window) {
    case FaultWindow::FrameTail:
      // The tail plus the whole end-game region (extended flags / sampling
      // run up to EOF-relative position 3m+4 in MajorCAN).
      win_lo = static_cast<BitTime>(eof_start > 4 ? eof_start - 4 : 0);
      win_hi = static_cast<BitTime>(eof_start + 3 * cfg.protocol.m + 6);
      break;
    case FaultWindow::WholeFrame:
      win_lo = 0;
      win_hi = static_cast<BitTime>(wire_len);
      break;
    case FaultWindow::TailAndRecovery:
      // Through the end-game and the full error delimiter — but not the
      // intermission or the retransmitted frame's bits, whose disturbance
      // effects are the separate parser-resynchronisation finding
      // (DESIGN.md §7), not delimiter robustness.
      win_lo = static_cast<BitTime>(eof_start > 4 ? eof_start - 4 : 0);
      win_hi = static_cast<BitTime>(eof_start + 5 * cfg.protocol.m + 6);
      break;
  }
  const auto win_size = static_cast<std::uint32_t>(win_hi - win_lo);

  for (int trial = first; trial < last; ++trial) {
    Rng rng = master.split(static_cast<std::uint64_t>(trial));

    Network net(cfg.n_nodes, cfg.protocol);
    ScriptedFaults inj;
    for (int e = 0; e < cfg.errors; ++e) {
      const auto node =
          static_cast<NodeId>(rng.next_below(static_cast<std::uint32_t>(cfg.n_nodes)));
      const BitTime at = win_lo + rng.next_below(win_size);
      inj.add(FaultTarget::at_time(node, at));
    }
    net.set_injector(inj);

    bool tx_crashed = false;
    if (cfg.crash_tx_randomly && rng.chance(0.5)) {
      // Crash the transmitter somewhere in or shortly after the fault
      // window — the Fig. 1c failure mode, randomised.
      const BitTime at = win_lo + rng.next_below(win_size + 20);
      net.sim().schedule_crash(0, at);
      tx_crashed = true;
    }

    net.node(0).enqueue(frame);
    const RunEnd end = finish_run(net, 0, kProbeQuietBudget);
    // The sender counts as having the message iff it reported TxSuccess and
    // did not crash; a correct sender with no deliveries anywhere is a total
    // loss (validity violation).
    const ProbeVerdict v = classify_probe(
        end.deliveries, end.tx_success > 0 && !tx_crashed, !end.quiet);
    if (v.timeout) {
      ++res.timeouts;
      continue;
    }
    res.retransmissions +=
        static_cast<int>(net.log().count(EventKind::TxRetransmit, 0));
    if (v.imo) ++res.imo;
    if (v.dup) ++res.double_rx;
    if (v.loss) ++res.total_loss;
    ++res.trials;
  }
  return res;
}

CampaignResult run_eof_campaign_parallel(const CampaignConfig& cfg,
                                         unsigned threads) {
  const int ranges = std::min(resolve_jobs(static_cast<int>(threads)),
                              std::max(1, cfg.trials));
  if (ranges <= 1) return run_eof_campaign(cfg);

  // One contiguous trial range per thread; the first `extra` ranges get
  // one trial more.
  std::vector<CampaignResult> parts(static_cast<std::size_t>(ranges));
  const int per = cfg.trials / ranges;
  const int extra = cfg.trials % ranges;
  parallel_for(parts.size(), ranges, [&](std::size_t i) {
    const int w = static_cast<int>(i);
    const int first = w * per + std::min(w, extra);
    const int last = first + per + (w < extra ? 1 : 0);
    parts[i] = run_eof_campaign_range(cfg, first, last);
  });

  CampaignResult res;
  res.cfg = cfg;
  for (const CampaignResult& p : parts) {
    res.trials += p.trials;
    res.imo += p.imo;
    res.double_rx += p.double_rx;
    res.total_loss += p.total_loss;
    res.retransmissions += p.retransmissions;
    res.timeouts += p.timeouts;
  }
  return res;
}

// ---------------------------------------------------------------------------
// higher-level baselines
// ---------------------------------------------------------------------------

std::string HigherCampaignResult::summary() const {
  std::string s = higher_kind_name(cfg.kind);
  s += " errors=" + std::to_string(cfg.errors);
  if (cfg.crash_tx_randomly) s += " +crashes";
  s += " trials=" + std::to_string(trials);
  s += " | AB2 violations=" + std::to_string(agreement_violations);
  s += " AB3=" + std::to_string(duplicate_trials);
  s += " AB5=" + std::to_string(order_trials);
  if (timeouts) s += " TIMEOUTS=" + std::to_string(timeouts);
  return s;
}

HigherCampaignResult run_higher_campaign(const HigherCampaignConfig& cfg) {
  HigherCampaignResult res;
  res.cfg = cfg;

  Rng master(cfg.seed, 0x8a7e11);
  // The DATA frame is the first thing on the bus; its geometry fixes the
  // disturbance window exactly as in the link-level campaign.
  const int eof_start = model_check_eof_start(ProtocolParams::standard_can());
  const BitTime win_lo = static_cast<BitTime>(eof_start - 4);
  const BitTime win_hi = static_cast<BitTime>(eof_start + kStandardEofBits + 3);
  const auto win_size = static_cast<std::uint32_t>(win_hi - win_lo);

  for (int trial = 0; trial < cfg.trials; ++trial) {
    Rng rng = master.split(static_cast<std::uint64_t>(trial));

    HigherNetwork net(cfg.kind, cfg.n_nodes, HostParams{cfg.timeout_bits});
    ScriptedFaults inj;
    for (int e = 0; e < cfg.errors; ++e) {
      const auto node = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint32_t>(cfg.n_nodes)));
      inj.add(FaultTarget::at_time(node, win_lo + rng.next_below(win_size)));
    }
    net.link().set_injector(inj);

    bool crashed = false;
    if (cfg.crash_tx_randomly && rng.chance(0.5)) {
      net.link().sim().schedule_crash(0, win_lo + rng.next_below(win_size + 30));
      crashed = true;
    }

    net.host(0).broadcast(MessageKey{0, 1});
    if (!net.run_until_quiet(60000)) {
      ++res.timeouts;
      continue;
    }

    std::set<NodeId> correct;
    for (int i = crashed ? 1 : 0; i < cfg.n_nodes; ++i) {
      correct.insert(static_cast<NodeId>(i));
    }
    const AbReport rep = net.check(correct);
    if (rep.agreement_violations > 0) ++res.agreement_violations;
    if (rep.duplicate_deliveries > 0) ++res.duplicate_trials;
    if (rep.order_inversions > 0) ++res.order_trials;
    ++res.trials;
  }
  return res;
}

// ---------------------------------------------------------------------------
// soak
// ---------------------------------------------------------------------------

std::string SoakResult::summary() const {
  std::string s = cfg.protocol.name();
  s += " nodes=" + std::to_string(cfg.n_nodes);
  s += " ber*=" + sci(cfg.ber_star, 2);
  s += " frames=" + std::to_string(frames_broadcast);
  s += " injected=" + std::to_string(errors_injected);
  s += " bits=" + std::to_string(duration_bits);
  s += "\n  " + report.summary();
  return s;
}

SoakResult run_soak(const SoakConfig& cfg) {
  SoakResult res;
  res.cfg = cfg;

  Network net(cfg.n_nodes, cfg.protocol);
  RandomFaults inj(cfg.ber_star, Rng(cfg.seed, 0x51a7b0));
  net.set_injector(inj);

  std::vector<BroadcastRecord> broadcasts;
  std::map<NodeId, DeliveryJournal> journals;
  for (int i = 0; i < cfg.n_nodes; ++i) {
    journals.emplace(static_cast<NodeId>(i), DeliveryJournal{});
  }

  // Senders journal their own broadcasts at TxSuccess (the moment the
  // controller reports the frame delivered).
  for (int i = 0; i < cfg.senders; ++i) {
    auto& journal = journals.at(static_cast<NodeId>(i));
    net.node(i).add_tx_done_handler([&journal](const Frame& f, BitTime t) {
      if (auto tag = parse_tag(f)) journal.push_back({tag->key, t});
    });
  }

  std::vector<int> next_seq(static_cast<std::size_t>(cfg.senders), 0);
  BitTime t = 0;
  const BitTime horizon =
      static_cast<BitTime>(cfg.frames_per_sender) * cfg.period_bits + 50;
  while (t < horizon) {
    for (int i = 0; i < cfg.senders; ++i) {
      // Staggered periodic release.
      const BitTime phase = static_cast<BitTime>(i) * 37;
      if ((t + phase) % static_cast<BitTime>(cfg.period_bits) == 0 &&
          next_seq[static_cast<std::size_t>(i)] < cfg.frames_per_sender) {
        const auto seq = static_cast<std::uint16_t>(
            ++next_seq[static_cast<std::size_t>(i)]);
        const MessageKey key{static_cast<NodeId>(i), seq};
        net.node(i).enqueue(make_tagged_frame(
            0x100 + static_cast<std::uint32_t>(i), MsgKind::Data, key));
        broadcasts.push_back({key, static_cast<NodeId>(i)});
      }
    }
    net.sim().step();
    ++t;
  }
  // Drain with a clean channel so pending retransmissions settle.
  inj.set_rate(0.0);
  net.run_until_quiet(60000);

  for (int i = 0; i < cfg.n_nodes; ++i) {
    auto& journal = journals.at(static_cast<NodeId>(i));
    for (const Delivery& d : net.deliveries(i)) {
      if (auto tag = parse_tag(d.frame)) {
        journal.push_back({tag->key, d.t});
      }
    }
    std::sort(journal.begin(), journal.end(),
              [](const DeliveryEvent& a, const DeliveryEvent& b) {
                return a.t < b.t;
              });
  }

  std::set<NodeId> correct;
  for (int i = 0; i < cfg.n_nodes; ++i) {
    if (net.node(i).active()) correct.insert(static_cast<NodeId>(i));
  }

  res.report = check_atomic_broadcast(broadcasts, journals, correct);
  res.frames_broadcast = static_cast<int>(broadcasts.size());
  res.errors_injected = inj.injected();
  res.duration_bits = net.sim().now();
  return res;
}

}  // namespace mcan
