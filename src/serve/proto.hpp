// The campaign service wire protocol: length-prefixed JSON frames over a
// Unix-domain socket.
//
// Framing is a 4-byte big-endian payload length followed by that many
// bytes of UTF-8 JSON.  Every request is a JSON object carrying
//
//     {"proto": 1, "type": "submit" | "status" | "result" | "cancel" |
//                          "stats" | "shutdown", ...}
//
// and every response is an object with an "ok" boolean ("error" text when
// false).  The protocol is versioned by the "proto" field: a daemon
// rejects any other version with an error response instead of guessing.
// Malformed input — truncated length prefix, oversized frame, bytes that
// do not parse as JSON, a non-object payload, an unknown request type —
// is rejected explicitly; the connection survives everything except a
// frame too large to skip.  Payloads are util/json.hpp values.
#pragma once

#include <cstdint>
#include <string>

#include "util/json.hpp"

namespace mcan {

inline constexpr int kProtoVersion = 1;

/// Frames larger than this are rejected (and the connection dropped,
/// since skipping an arbitrarily large payload is itself a resource
/// hazard).  Large enough for any checkpointed corpus we ship.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{8} << 20;

// ---------------------------------------------------------------------------
// Frame I/O over a connected socket (or any fd).
// ---------------------------------------------------------------------------

enum class FrameRead {
  kOk,         ///< one complete frame in `payload`
  kEof,        ///< peer closed cleanly before any byte of a frame
  kTruncated,  ///< peer closed mid-prefix or mid-payload
  kTooLarge,   ///< declared length exceeds `max_bytes`
  kError,      ///< read(2) failed
};

/// Read one length-prefixed frame, looping over partial reads (fragmented
/// delivery is normal on a stream socket).
[[nodiscard]] FrameRead read_frame(int fd, std::string& payload,
                                   std::size_t max_bytes = kMaxFrameBytes);

/// Write one frame, looping over partial writes; false on error.
[[nodiscard]] bool write_frame(int fd, const std::string& payload);

// ---------------------------------------------------------------------------
// Request/response vocabulary.
// ---------------------------------------------------------------------------

/// A request skeleton: {"proto": kProtoVersion, "type": type}.
[[nodiscard]] Json make_request(const std::string& type);

/// {"ok": true}.
[[nodiscard]] Json ok_response();

/// {"ok": false, "error": message[, "rejected": true]}.  `rejected`
/// marks backpressure (queue full), which clients may retry later —
/// unlike a malformed request, which they must not.
[[nodiscard]] Json error_response(const std::string& message,
                                  bool rejected = false);

/// Validate the envelope of a parsed request: must be an object, carry
/// proto == kProtoVersion and a string "type".  Returns "" when valid,
/// else the rejection message.
[[nodiscard]] std::string validate_request(const Json& req);

}  // namespace mcan
