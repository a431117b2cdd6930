#include "core/protocol.hpp"

#include <charconv>
#include <stdexcept>

#include "frame/layout.hpp"

namespace mcan {

const char* delimiter_mode_name(DelimiterMode m) {
  switch (m) {
    case DelimiterMode::FixedEndGame: return "fixed-end-game";
    case DelimiterMode::ConvergentCount: return "convergent-count";
    case DelimiterMode::EagerCount: return "eager-count";
  }
  return "?";
}

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::StandardCan: return "CAN";
    case Variant::MinorCan: return "MinorCAN";
    case Variant::MajorCan: return "MajorCAN";
  }
  return "?";
}

ProtocolParams ProtocolParams::standard_can() {
  return ProtocolParams{Variant::StandardCan, 5};
}

ProtocolParams ProtocolParams::minor_can() {
  return ProtocolParams{Variant::MinorCan, 5};
}

ProtocolParams ProtocolParams::major_can(int m) {
  ProtocolParams p{Variant::MajorCan, m};
  p.validate();
  return p;
}

void ProtocolParams::validate() const {
  if (variant == Variant::MajorCan && m < 3) {
    throw std::invalid_argument(
        "MajorCAN requires m >= 3: with 2 errors the Fig. 3a scenario "
        "defeats any smaller tolerance (paper, section 5)");
  }
  if (variant == Variant::MajorCan && m > kMaxTolerance) {
    throw std::invalid_argument(
        "MajorCAN tolerance m exceeds kMaxTolerance; the EOF-relative "
        "anchor range [-(m+4), 3m+4] must stay clear of the kNoEofRel "
        "sentinel");
  }
}

int ProtocolParams::eof_bits() const {
  return variant == Variant::MajorCan ? majorcan_eof_bits(m) : kStandardEofBits;
}

int ProtocolParams::error_delim_total() const {
  return variant == Variant::MajorCan ? 2 * m + 1 : 8;
}

int ProtocolParams::best_case_overhead_bits() const {
  return variant == Variant::MajorCan ? 2 * m - 7 : 0;
}

int ProtocolParams::worst_case_overhead_bits() const {
  return variant == Variant::MajorCan ? 4 * m - 9 : 0;
}

std::string ProtocolParams::name() const {
  if (variant == Variant::MajorCan) {
    return "MajorCAN_" + std::to_string(m);
  }
  return variant_name(variant);
}

ProtocolParams parse_protocol_arg(const std::string& token) {
  if (token == "can" || token == "standard") {
    return ProtocolParams::standard_can();
  }
  if (token == "minor") return ProtocolParams::minor_can();
  if (token == "major") return ProtocolParams::major_can(3);
  if (token.rfind("major:", 0) == 0) {
    const char* first = token.data() + 6;
    const char* last = token.data() + token.size();
    int m = 0;
    const auto [end, ec] = std::from_chars(first, last, m);
    if (ec != std::errc() || end != last || m < 3 || m > 31) {
      throw std::invalid_argument("bad MajorCAN order in '" + token +
                                  "' (want major:<m>, m in [3, 31])");
    }
    return ProtocolParams::major_can(m);
  }
  throw std::invalid_argument("unknown protocol '" + token +
                              "' (want can|minor|major|major:<m>)");
}

std::string protocol_token(const ProtocolParams& p) {
  switch (p.variant) {
    case Variant::StandardCan: return "can";
    case Variant::MinorCan: return "minor";
    case Variant::MajorCan: return "major:" + std::to_string(p.m);
  }
  return "can";
}

std::vector<ProtocolParams> default_protocol_set() {
  return {ProtocolParams::standard_can(), ProtocolParams::minor_can(),
          ProtocolParams::major_can(3), ProtocolParams::major_can(5)};
}

}  // namespace mcan
