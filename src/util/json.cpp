#include "util/json.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/text.hpp"

namespace mcan {

long long Json::as_int(long long dflt) const {
  if (type_ == Type::Int) return i_;
  if (type_ == Type::Double && std::isfinite(d_)) {
    return static_cast<long long>(d_);
  }
  return dflt;
}

double Json::as_double(double dflt) const {
  if (type_ == Type::Double) return d_;
  if (type_ == Type::Int) return static_cast<double>(i_);
  if (type_ == Type::String) {
    if (s_ == "NaN") return std::nan("");
    if (s_ == "Infinity") return HUGE_VAL;
    if (s_ == "-Infinity") return -HUGE_VAL;
  }
  return dflt;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::set(const std::string& key, Json v) {
  type_ = Type::Object;
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  obj_.emplace_back(key, std::move(v));
  return *this;
}

Json& Json::push(Json v) {
  type_ = Type::Array;
  arr_.push_back(std::move(v));
  return *this;
}

namespace {

void dump_value(const Json& j, std::string& out) {
  switch (j.type()) {
    case Json::Type::Null:
      out += "null";
      break;
    case Json::Type::Bool:
      out += j.as_bool() ? "true" : "false";
      break;
    case Json::Type::Int:
      out += std::to_string(j.as_int());
      break;
    case Json::Type::Double:
      out += json_number(j.as_double());
      break;
    case Json::Type::String:
      out += '"';
      out += json_escape(j.as_string());
      out += '"';
      break;
    case Json::Type::Array: {
      out += '[';
      bool first = true;
      for (const Json& item : j.items()) {
        if (!first) out += ',';
        first = false;
        dump_value(item, out);
      }
      out += ']';
      break;
    }
    case Json::Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : j.members()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += json_escape(k);
        out += "\":";
        dump_value(v, out);
      }
      out += '}';
      break;
    }
  }
}

// Recursive-descent parser.  Depth is bounded so hostile nesting cannot
// blow the stack; overall size is already bounded by the frame cap.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool run(Json& out, std::string& error) {
    skip_ws();
    if (!parse_value(out, 0)) {
      error = err_ + " at byte " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error = "trailing bytes after value at byte " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool fail(const char* msg) {
    err_ = msg;
    return false;
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return fail("invalid literal");
    pos_ += n;
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        out = Json();
        return literal("null");
      case 't':
        out = Json(true);
        return literal("true");
      case 'f':
        out = Json(false);
        return literal("false");
      case '"':
        return parse_string(out);
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        return parse_number(out);
    }
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      pos_ = start;
      return fail("invalid number");
    }
    bool integral = true;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string tok = text_.substr(start, pos_ - start);
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0') {
        out = Json(v);
        return true;
      }
      // Out of long long range: fall through to double.
    }
    out = Json(std::strtod(tok.c_str(), nullptr));
    return true;
  }

  bool parse_string(Json& out) {
    std::string s;
    if (!parse_raw_string(s)) return false;
    out = Json(std::move(s));
    return true;
  }

  bool parse_raw_string(std::string& s) {
    ++pos_;  // opening quote
    s.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        s += c;
        ++pos_;
        continue;
      }
      if (++pos_ >= text_.size()) return fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': s += '"'; break;
        case '\\': s += '\\'; break;
        case '/': s += '/'; break;
        case 'b': s += '\b'; break;
        case 'f': s += '\f'; break;
        case 'n': s += '\n'; break;
        case 'r': s += '\r'; break;
        case 't': s += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          // Surrogate pair → one code point.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              unsigned lo = 0;
              if (!parse_hex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return fail("invalid low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return fail("unpaired high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired low surrogate");
          }
          append_utf8(s, cp);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("invalid hex digit in \\u escape");
      }
    }
    out = v;
    return true;
  }

  static void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_array(Json& out, int depth) {
    ++pos_;  // '['
    out = Json::array();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      Json item;
      skip_ws();
      if (!parse_value(item, depth + 1)) return false;
      out.push(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(Json& out, int depth) {
    ++pos_;  // '{'
    out = Json::object();
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected string key in object");
      }
      std::string key;
      if (!parse_raw_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_ws();
      Json value;
      if (!parse_value(value, depth + 1)) return false;
      out.set(key, std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string err_;
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

bool Json::parse(const std::string& text, Json& out, std::string& error) {
  return Parser(text).run(out, error);
}

}  // namespace mcan
