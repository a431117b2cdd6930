// Protocol-variant parameters: the paper's contribution in numbers.
//
// Standard CAN and MinorCAN share the classic frame geometry (7-bit EOF,
// 8-bit error delimiter); they differ only in the last-bit-of-EOF decision
// rule.  MajorCAN_m (paper §5) changes the geometry itself:
//
//   * EOF = 2m bits, split into two m-bit sub-fields.  An error detected in
//     the first sub-field (positions 1..m, paper's 1-based numbering) means
//     "somebody may have rejected": send a regular 6-bit error flag, then
//     majority-vote 2m-1 sampled bits.  An error detected in the second
//     sub-field (positions m+1..2m) means "somebody detected the error
//     before me and is sampling": accept the frame and notify with an
//     *extended* error flag.
//   * The extended flag and the sampling window both end at position 3m+5;
//     the window covers positions m+7 .. 3m+5 (2m-1 bits), so up to m-1
//     additional disturbances cannot swing the majority.
//   * The error delimiter becomes 2m+1 recessive bits, matching the
//     recessive tail (ACK delimiter + EOF) of an error-free frame so nodes
//     can resynchronise on either.
//
// All positions in this header are 0-based relative to the first EOF bit;
// the paper's figures use 1-based positions (subtract 1 to convert).
#pragma once

#include <string>
#include <vector>

namespace mcan {

enum class Variant {
  StandardCan,  ///< ISO 11898 semantics
  MinorCan,     ///< paper §3: Primary_error rule at the last EOF bit
  MajorCan,     ///< paper §5: split EOF + extended flags + majority voting
};

[[nodiscard]] const char* variant_name(Variant v);

/// MajorCAN delimiter mechanics (ablation; see DESIGN.md §5).  The paper
/// fixes the delimiter *length* (2m+1) but not its robustness; only
/// FixedEndGame keeps the <= m guarantee.
enum class DelimiterMode : std::uint8_t {
  /// End-game participants hold until EOF-relative position 3m+5, then
  /// count a fixed 2m+1 bits ignoring bus content.  The sound design.
  FixedEndGame,
  /// Hold until 3m+5, then count consecutive recessive bits, restarting on
  /// any dominant one.  A single view flip in the delimiter silently
  /// stalls a node past the retransmission.
  ConvergentCount,
  /// No hold: a flagging node starts its (convergent) delimiter as soon as
  /// its own flag ends.  Early finishers desynchronise from the samplers.
  EagerCount,
};

[[nodiscard]] const char* delimiter_mode_name(DelimiterMode m);

/// Upper bound on the MajorCAN tolerance parameter m, enforced by
/// ProtocolParams::validate().  Keeps every EOF-relative anchor value
/// (which run from -(m+4)) strictly above the kNoEofRel sentinel, and
/// frames within any plausible hardware budget (m = 5 is the paper's pick).
inline constexpr int kMaxTolerance = 100;

struct ProtocolParams {
  Variant variant = Variant::StandardCan;
  /// MajorCAN error-tolerance parameter; the paper proposes m = 5 to match
  /// the CRC's 5-random-bit-error detection guarantee.  Must be >= 3
  /// (with m = 2 the Fig. 3a scenario is still possible, §5).
  int m = 5;

  // --- ablation knobs; defaults reproduce the paper's design ---

  /// §5: "if any node detects its second error during the bits
  /// corresponding to the EOF and the extended error flags, this is not
  /// signaled with any additional error flag."  Turning this off makes
  /// end-game nodes answer stray dominant bits with fresh flags, which
  /// "could spoil the agreement process" — measurably (bench_ablation).
  bool suppress_second_errors = true;

  /// Delimiter mechanics (MajorCAN only); see DelimiterMode.
  DelimiterMode delimiter = DelimiterMode::FixedEndGame;

  /// Override the first sub-field width (0 = the paper's m).  The paper
  /// sizes it at exactly m so that a CRC-error flag delayed by up to m-1
  /// errors can never be first seen in the accepting sub-field.
  int first_subfield_override = 0;

  /// Override the majority threshold (0 = the paper's m, a strict
  /// majority of the 2m-1 samples).
  int majority_override = 0;

  [[nodiscard]] static ProtocolParams standard_can();
  [[nodiscard]] static ProtocolParams minor_can();
  [[nodiscard]] static ProtocolParams major_can(int m = 5);

  /// Throws std::invalid_argument on unusable parameters.
  void validate() const;

  /// EOF field length: 7 (CAN, MinorCAN) or 2m (MajorCAN).
  [[nodiscard]] int eof_bits() const;

  /// Total recessive bits of the error/overload delimiter, counting the
  /// first recessive bit seen after the flag: 8 (CAN) or 2m+1 (MajorCAN).
  [[nodiscard]] int error_delim_total() const;

  /// Length of active error/overload flags (always 6).
  [[nodiscard]] static constexpr int flag_bits() { return 6; }

  // --- MajorCAN end-game geometry (0-based EOF-relative positions) ---

  /// Width of the first EOF sub-field (paper: m).
  [[nodiscard]] int first_subfield_bits() const {
    return first_subfield_override > 0 ? first_subfield_override : m;
  }

  /// Last position of the first EOF sub-field ("reject side"): m-1.
  [[nodiscard]] int first_subfield_last() const {
    return first_subfield_bits() - 1;
  }

  /// Last position of the second EOF sub-field ("accept side"): 2m-1.
  [[nodiscard]] int second_subfield_last() const { return 2 * m - 1; }

  /// First sampled position: paper (m+7)th => 0-based m+6.
  [[nodiscard]] int sample_begin() const { return m + 6; }

  /// Last sampled position (also where extended flags end):
  /// paper (3m+5)th => 0-based 3m+4.
  [[nodiscard]] int sample_end() const { return 3 * m + 4; }

  /// Number of sampled bits: 2m-1.
  [[nodiscard]] int sample_count() const { return 2 * m - 1; }

  /// Dominant samples needed to accept: strict majority of 2m-1, i.e. m.
  [[nodiscard]] int majority() const {
    return majority_override > 0 ? majority_override : m;
  }

  // --- Overhead accounting (paper §5 / §6) ---

  /// Error-free overhead vs. standard CAN: 2m-7 bits (0 for CAN/MinorCAN).
  [[nodiscard]] int best_case_overhead_bits() const;

  /// Worst-case overhead vs. standard CAN when the end-game runs:
  /// (2m-7) + (2m-2) = 4m-9 bits (0 for CAN/MinorCAN).
  [[nodiscard]] int worst_case_overhead_bits() const;

  /// "CAN", "MinorCAN", "MajorCAN_5", ...
  [[nodiscard]] std::string name() const;

  [[nodiscard]] bool operator==(const ProtocolParams&) const = default;
};

// --- the protocol token every command-line flag and job spec uses ---

/// Parse a protocol token: "can" (or "standard"), "minor", "major" (m = 3)
/// or "major:<m>" with m in [3, 31] (ProtocolParams::validate() needs
/// m >= 3).  Throws std::invalid_argument on anything else.
[[nodiscard]] ProtocolParams parse_protocol_arg(const std::string& token);

/// The canonical token for `p` ("can", "minor", "major:<m>"): the inverse
/// of parse_protocol_arg, used to render job specs and fingerprints.
[[nodiscard]] std::string protocol_token(const ProtocolParams& p);

/// The default sweep set: CAN, MinorCAN, MajorCAN_3, MajorCAN_5.
[[nodiscard]] std::vector<ProtocolParams> default_protocol_set();

}  // namespace mcan
