#include "util/text.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mcan {

std::string pad_right(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

std::string sci(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", digits - 1, v);
  return buf;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string render_table(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return {};
  std::vector<std::size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      out += pad_right(rows[r][c], widths[c] + 2);
    }
    out += '\n';
    if (r == 0) {
      for (std::size_t c = 0; c < rows[0].size(); ++c) {
        out += std::string(widths[c], '-') + "  ";
      }
      out += '\n';
    }
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\f': out += "\\f"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (std::isnan(v)) return "\"NaN\"";
  if (std::isinf(v)) return v > 0 ? "\"Infinity\"" : "\"-Infinity\"";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const int rc = std::fclose(f);
  return n == content.size() && rc == 0;
}

bool write_text_file(const char* tool, const std::string& path,
                     const std::string& content) {
  if (write_text_file(path, content)) return true;
  std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
  return false;
}

std::string file_slug(const std::string& name) {
  std::string out;
  for (const char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out += c;
    } else if (c >= 'A' && c <= 'Z') {
      out += static_cast<char>(c - 'A' + 'a');
    } else {
      out += '_';
    }
  }
  return out;
}

}  // namespace mcan
