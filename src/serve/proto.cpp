#include "serve/proto.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mcan {

// ---------------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------------

namespace {

/// Read exactly n bytes; 1 = ok, 0 = EOF before any byte, -1 = EOF or
/// error mid-read.
int read_exact(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return got == 0 ? 0 : -1;
    if (errno == EINTR) continue;
    return -1;
  }
  return 1;
}

bool write_exact(int fd, const char* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::write(fd, buf + sent, n - sent);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

FrameRead read_frame(int fd, std::string& payload, std::size_t max_bytes) {
  unsigned char prefix[4];
  errno = 0;
  const int rc = read_exact(fd, reinterpret_cast<char*>(prefix), 4);
  if (rc == 0) return FrameRead::kEof;
  if (rc < 0) return errno == 0 ? FrameRead::kTruncated : FrameRead::kError;
  const std::uint32_t len = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                            (static_cast<std::uint32_t>(prefix[1]) << 16) |
                            (static_cast<std::uint32_t>(prefix[2]) << 8) |
                            static_cast<std::uint32_t>(prefix[3]);
  if (len > max_bytes) return FrameRead::kTooLarge;
  payload.resize(len);
  if (len == 0) return FrameRead::kOk;
  errno = 0;
  const int body = read_exact(fd, payload.data(), len);
  if (body == 1) return FrameRead::kOk;
  return errno == 0 || body == 0 ? FrameRead::kTruncated : FrameRead::kError;
}

bool write_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  const auto len = static_cast<std::uint32_t>(payload.size());
  const char prefix[4] = {static_cast<char>(len >> 24),
                          static_cast<char>(len >> 16),
                          static_cast<char>(len >> 8), static_cast<char>(len)};
  return write_exact(fd, prefix, 4) &&
         write_exact(fd, payload.data(), payload.size());
}

// ---------------------------------------------------------------------------
// Request/response vocabulary.
// ---------------------------------------------------------------------------

Json make_request(const std::string& type) {
  Json req = Json::object();
  req.set("proto", Json(static_cast<long long>(kProtoVersion)));
  req.set("type", Json(type));
  return req;
}

Json ok_response() {
  Json res = Json::object();
  res.set("ok", Json(true));
  return res;
}

Json error_response(const std::string& message, bool rejected) {
  Json res = Json::object();
  res.set("ok", Json(false));
  res.set("error", Json(message));
  if (rejected) res.set("rejected", Json(true));
  return res;
}

std::string validate_request(const Json& req) {
  if (!req.is_object()) return "request must be a JSON object";
  const Json* proto = req.find("proto");
  if (!proto || !proto->is_number()) {
    return "missing protocol version field \"proto\"";
  }
  if (proto->as_int() != kProtoVersion) {
    return "unsupported protocol version " + std::to_string(proto->as_int()) +
           " (daemon speaks " + std::to_string(kProtoVersion) + ")";
  }
  const Json* type = req.find("type");
  if (!type || !type->is_string() || type->as_string().empty()) {
    return "missing request type field \"type\"";
  }
  return {};
}

}  // namespace mcan
