// Trace recording and paper-style ASCII timeline rendering.
//
// The recorder stores every BitRecord of a run; the renderer prints one row
// per node using the same alphabet as the paper's figures: 'r'/'d' for the
// node's view of each bit, uppercase when the node itself drives dominant,
// '*' marking bits whose view was disturbed by the injector, and '.' when
// the node is off.  A second band shows the node's FSM segment, so a rendered
// trace reads like Fig. 1/2/3/5 of the paper with the decision annotations.
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace mcan {

class TraceRecorder final : public TraceObserver {
 public:
  /// Copies the record: the simulator refills its one record every bit.
  void on_bit(const BitRecord& rec) override { bits_.push_back(rec); }

  [[nodiscard]] const std::vector<BitRecord>& bits() const { return bits_; }
  void clear() { bits_.clear(); }

  /// Render bit times [from, to) as an ASCII timeline.
  /// `labels` — one display name per node (attach order).
  [[nodiscard]] std::string render(const std::vector<std::string>& labels,
                                   BitTime from, BitTime to) const;

  /// Render everything recorded.
  [[nodiscard]] std::string render(const std::vector<std::string>& labels) const;

  /// First bit time at which any node's segment equals `s` (or kNoTime).
  [[nodiscard]] BitTime first_time_in_seg(Seg s) const;

 private:
  std::vector<BitRecord> bits_;
};

}  // namespace mcan
