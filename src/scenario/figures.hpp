// Scripted reproductions of the paper's figure scenarios.
//
// Every function builds a small bus (transmitter node 0, receiver set X,
// receiver set Y), injects exactly the disturbances the figure describes —
// addressed by frame-relative position, like the figure captions — runs the
// bus to quiescence and reports who accepted the frame how many times,
// whether the transmitter retransmitted, and a rendered ASCII timeline of
// the interesting window.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/protocol.hpp"
#include "fault/scripted.hpp"

namespace mcan {

struct ScenarioOutcome {
  std::string name;
  ProtocolParams protocol;
  int n_nodes = 0;
  NodeId tx_node = 0;

  std::vector<int> deliveries;  ///< per node: copies of the frame delivered
  int tx_success = 0;           ///< TxSuccess events at the transmitter
  int tx_attempts = 0;          ///< SofSent events at the transmitter
  bool tx_crashed = false;
  bool faults_all_fired = false;  ///< scenario script sanity
  std::string trace;              ///< rendered timeline (opt-in in run_scenario)
  std::vector<std::string> notes;

  /// Inconsistent message omission among receivers: some got it, some never.
  [[nodiscard]] bool imo() const;

  /// Any receiver delivered the frame more than once.
  [[nodiscard]] bool double_reception() const;

  /// Every receiver delivered exactly once.
  [[nodiscard]] bool consistent_single_delivery() const;

  [[nodiscard]] std::string summary() const;
};

/// Generic engine: one transmitter (node 0) sending one frame over
/// `n_nodes` nodes with scripted disturbances.  If
/// `crash_tx_before_retransmit` is set, a first pass locates the moment the
/// transmitter schedules its retransmission and a second pass crashes it
/// right after its error flag — the Fig. 1c transmitter failure.
[[nodiscard]] ScenarioOutcome run_eof_scenario(
    std::string name, const ProtocolParams& protocol, int n_nodes,
    std::vector<FaultTarget> faults, bool crash_tx_before_retransmit = false);

// --- the paper's figures ---
// Node roles in all of these: 0 = transmitter, X = {1, 2}, Y = {3, 4}
// (Fig. 5 uses X = {1}, Y = {2, 3} to stay within the m = 5 error budget).

/// Fig. 1a: X sees a dominant level in the *last* EOF bit; the last-bit rule
/// turns it into an overload condition and consistency survives.
[[nodiscard]] ScenarioOutcome run_fig1a(const ProtocolParams& p);

/// Fig. 1b: X sees a dominant level in the last-but-one EOF bit => X
/// rejects, transmitter retransmits, Y accepts twice (double reception).
[[nodiscard]] ScenarioOutcome run_fig1b(const ProtocolParams& p);

/// Fig. 1c: as 1b but the transmitter crashes before the retransmission =>
/// inconsistent message omission.
[[nodiscard]] ScenarioOutcome run_fig1c(const ProtocolParams& p);

/// Fig. 3a/3b: the paper's new two-disturbance scenario — X hit in the
/// last-but-one EOF bit *and* the transmitter's view of the last EOF bit
/// flipped so it cannot see the error flag.  Defeats CAN and MinorCAN.
[[nodiscard]] ScenarioOutcome run_fig3(const ProtocolParams& p);

/// Fig. 5: MajorCAN_m consistency under m errors (1 phantom at X, 2 on the
/// transmitter's view of the flag, 2 on X's sampling window).
[[nodiscard]] ScenarioOutcome run_fig5(int m = 5);

// --- Fig. 4: single-node behaviour probe ---

struct Fig4Row {
  std::string error_at;   ///< "CRC error" or "EOF bit k" (1-based, paper style)
  std::string flag;       ///< "6-bit error flag" / "extended error flag" / ...
  bool sampling = false;  ///< did the node run the majority vote
  std::string verdict;    ///< "accepted" / "rejected"
};

/// Probe a MajorCAN_m receiver with an error at each interesting position
/// and report its behaviour — the content of the paper's Fig. 4.
[[nodiscard]] std::vector<Fig4Row> run_fig4(int m = 5);

// --- additional protocol demonstrations ---

/// The CAN5 total-order violation: frame A is scheduled for retransmission
/// after a partial reception; frame B wins the arbitration first, so nodes
/// observe A,B,A vs. B,A.  Returns per-node delivery sequences as strings
/// plus the number of order inversions.
struct OrderScenarioOutcome {
  std::string name;
  ProtocolParams protocol;
  std::vector<std::string> per_node_order;  ///< e.g. "A B A"
  long long order_inversions = 0;
  int duplicate_deliveries = 0;
  std::string summary() const;
};
[[nodiscard]] OrderScenarioOutcome run_order_scenario(const ProtocolParams& p);

/// Probe the paper's first-sub-field sizing argument (§5): node 1 suffers a
/// CRC error (flag at EOF position 1) and node 2's view of the first m-1
/// flag bits is disturbed, delaying its detection to position m — the
/// worst case the m-bit first sub-field is sized for.  With the paper's
/// sizing the detection stays on the rejecting side and everyone rejects
/// consistently; with a narrower sub-field (first_subfield_override < m)
/// node 2 reads the flag as an acceptance notification and agreement
/// breaks.  Total error budget: 1 + (m-1) = m.
[[nodiscard]] ScenarioOutcome run_crc_delay_scenario(const ProtocolParams& p);

/// Find a body wire bit whose single view-flip produces a clean CRC error
/// at receiver node 1 (no stuff/form shortcut); used by scenario builders.
/// The search runs on `n_nodes` because the answer is topology-dependent:
/// a flip that desynchronises the destuffer can die at the (acked,
/// dominant) ACK slot on a multi-receiver bus but pass on a 2-node one.
[[nodiscard]] int find_crc_error_body_bit(const ProtocolParams& p,
                                          int n_nodes = 2);

/// The paper's introductory error-passive inconsistency: an error-passive
/// receiver signals a CRC error with a passive (all-recessive) flag nobody
/// sees; the transmitter never retransmits, so only that node misses the
/// frame.  With `switch_off_at_warning` the node disconnects instead and
/// consistency among connected nodes is preserved.
[[nodiscard]] ScenarioOutcome run_error_passive_scenario(bool switch_off_at_warning);

}  // namespace mcan
