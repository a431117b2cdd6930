#include "util/options.hpp"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>

namespace mcan {

std::string parse_integer(const std::string& text, long long lo, long long hi,
                          long long& out) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  if (ec == std::errc::result_out_of_range) {
    return "'" + text + "' is out of range";
  }
  if (ec != std::errc() || end != last) {
    return "'" + text + "' is not an integer";
  }
  if (out < lo || out > hi) {
    return text + " is out of range [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
  }
  return {};
}

std::string parse_real(const std::string& text, double lo, double hi,
                       double& out) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, out);
  if (ec != std::errc() || end != last) {
    return "'" + text + "' is not a number";
  }
  if (!(out >= lo && out <= hi)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " is out of range [%g, %g]", lo, hi);
    return text + buf;
  }
  return {};
}

BoundOptions join(std::vector<BoundOptions> parts) {
  BoundOptions out;
  for (BoundOptions& p : parts) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
  }
  return out;
}

bool report_error(const char* tool, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "%s: %s\n", tool, error.c_str());
  return error.empty();
}

std::vector<std::string> args_of(int argc, char** argv) {
  return argc > 1 ? std::vector<std::string>(argv + 1, argv + argc)
                  : std::vector<std::string>();
}

std::string parse_command_line(const std::vector<std::string>& args,
                               const BoundOptions& opts,
                               std::vector<std::string>& positional) {
  std::vector<int> seen(opts.size(), 0);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.size() < 2 || a[0] != '-') {
      positional.push_back(a);
      continue;
    }
    std::size_t k = 0;
    while (k < opts.size() && opts[k].info->flag != a &&
           (opts[k].info->alias.empty() || opts[k].info->alias != a)) {
      ++k;
    }
    if (k == opts.size()) return "unknown option " + a;
    const OptionInfo& info = *opts[k].info;
    if (seen[k]++ && !info.list) return info.flag + " given more than once";
    std::string value;
    if (!info.meta.empty()) {
      if (i + 1 >= args.size()) return a + " needs a value";
      value = args[++i];
    }
    if (std::string err = opts[k].set(value, seen[k] == 1); !err.empty()) {
      return a + ": " + err;
    }
  }
  return {};
}

int parse_flags(const char* tool, int argc, char** argv,
                const BoundOptions& opts, const char* usage,
                std::vector<std::string>* positional) {
  const std::vector<std::string> args = args_of(argc, argv);
  for (const std::string& a : args) {
    if (a == "-h" || a == "--help") {
      std::printf("%s\noptions:\n%s  -h, --help            this text\n", usage,
                  options_help(opts).c_str());
      return 0;
    }
  }
  std::vector<std::string> rest;
  std::string error = parse_command_line(args, opts, rest);
  if (error.empty() && !positional && !rest.empty()) {
    error = "unexpected argument " + rest.front();
  }
  if (positional) *positional = std::move(rest);
  if (error.empty()) return -1;
  std::fprintf(stderr, "%s: %s (see --help)\n", tool, error.c_str());
  return 2;
}

std::string options_help(const BoundOptions& opts) {
  constexpr std::size_t kColumn = 24;
  std::string out;
  for (const BoundOption& b : opts) {
    const OptionInfo& info = *b.info;
    std::string left = "  " + info.flag;
    if (!info.alias.empty()) left += ", " + info.alias;
    if (!info.meta.empty()) left += " " + info.meta;
    // The help text starts at kColumn, on the next line after a long flag.
    if (left.size() + 2 > kColumn) {
      left += "\n";
      left.append(kColumn, ' ');
    } else {
      left.resize(kColumn, ' ');
    }
    std::string text = info.help;
    if (const std::string dflt = b.show(); !dflt.empty()) {
      text += " (default " + dflt + ")";
    }
    for (const char c : text) {
      left += c;
      if (c == '\n') left.append(kColumn, ' ');
    }
    out += left + "\n";
  }
  return out;
}

namespace option_detail {

std::string from_text(Kind kind, bool on, const std::string& text,
                      Json& out) {
  switch (kind) {
    case Kind::Integer: {
      long long n = 0;
      std::string err = parse_integer(text, LLONG_MIN, LLONG_MAX, n);
      out = Json(n);
      return err;
    }
    case Kind::Real: {
      double d = 0;
      std::string err = parse_real(text, -HUGE_VAL, HUGE_VAL, d);
      out = Json(d);
      return err;
    }
    case Kind::Switch:
      out = Json(on);
      return {};
    case Kind::Text:
      out = Json(text);
      return {};
  }
  return {};
}

std::string integer_in(const Json& v, long long lo, long long hi,
                       long long& out) {
  if (v.type() != Json::Type::Int) return "want an integer";
  out = v.as_int();
  if (out < lo || out > hi) {
    return std::to_string(out) + " is out of range [" + std::to_string(lo) +
           ", " + std::to_string(hi) + "]";
  }
  return {};
}

std::string real_in(const Json& v, double lo, double hi, double& out) {
  if (!v.is_number()) return "want a number";
  out = v.as_double();
  if (!(out >= lo && out <= hi)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%g is out of range [%g, %g]", out, lo,
                  hi);
    return buf;
  }
  return {};
}

std::string bool_of(const Json& v, bool& out) {
  if (v.type() != Json::Type::Bool) return "want true or false";
  out = v.as_bool();
  return {};
}

std::string string_of(const Json& v, std::string& out) {
  if (!v.is_string()) return "want a string";
  out = v.as_string();
  return {};
}

std::string show(const Json& v) {
  switch (v.type()) {
    case Json::Type::Int:
      return std::to_string(v.as_int());
    case Json::Type::Double: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", v.as_double());
      return buf;
    }
    case Json::Type::String:
      return v.as_string();
    case Json::Type::Array: {
      std::string out;
      for (const Json& item : v.items()) {
        out += (out.empty() ? "" : " ") + show(item);
      }
      return out;
    }
    default:
      return {};
  }
}

}  // namespace option_detail

const OptionTable<RunOptions>& run_options() {
  static const OptionTable<RunOptions> table = [] {
    OptionTable<RunOptions> t;
    t.integer({"--jobs", "-j", "", "N",
               "worker threads, 0 = one per hardware thread"},
              &RunOptions::jobs, 0, 1024)
        .toggle({"--no-progress", "", "", "", "silence the stderr progress "
                                              "meter"},
                &RunOptions::progress, false)
        .text({"--json", "", "", "PATH",
               "write a machine-readable result to PATH"},
              &RunOptions::json)
        .token({"--window", "", "", "LO:HI",
                "flip window override, EOF-relative bits"},
               &RunOptions::window,
               [](const std::string& s) {
                 const std::size_t colon = s.find(':');
                 long long lo = 0;
                 long long hi = 0;
                 if (colon == std::string::npos ||
                     !parse_integer(s.substr(0, colon), -1000, 1000, lo)
                          .empty() ||
                     !parse_integer(s.substr(colon + 1), -1000, 1000, hi)
                          .empty()) {
                   throw std::invalid_argument("'" + s + "' is not LO:HI");
                 }
                 return std::optional<std::pair<int, int>>(
                     {static_cast<int>(lo), static_cast<int>(hi)});
               },
               [](const std::optional<std::pair<int, int>>& w) {
                 return w ? std::to_string(w->first) + ":" +
                                std::to_string(w->second)
                          : std::string();
               });
    return t;
  }();
  return table;
}

}  // namespace mcan
