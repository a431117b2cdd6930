// Declarative options: each engine declares its options once, and every
// front end — the CLIs, the job client and the serve backends — reads
// that one declaration.
//
// An OptionTable<T> entry binds one field of T (through a member pointer
// or an accessor such as `[](auto& t) -> auto& { return t.cfg.seed; }`)
// and names its flag, optional short alias, job-spec key ("" for an
// option that exists on the command line only), value placeholder, type,
// range and help line.  From that one entry
//
//   * bind() + parse_command_line() parse argv,
//   * decode() reads a JSON job spec and render() writes one back,
//   * options_help() prints the --help lines, ending each with the bound
//     object's current value as the default.
//
// Everything is strict: an unknown flag or key, a missing value, a value
// of the wrong type, trailing junk ("200.7" or "abc" for an integer), an
// out-of-range value, or a flag given twice that is not a list is an
// error whose text names the flag or key.  A command binds only the
// options it reads, so a flag it would ignore is rejected.
#pragma once

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace mcan {

/// What the parser and the help printer know of an option.
struct OptionInfo {
  std::string flag;   ///< "--max-execs"
  std::string alias;  ///< short form ("-k"), or ""
  std::string key;    ///< job-spec key, or "" for command line only
  std::string meta;   ///< value placeholder ("N"); "" for a switch
  std::string help;   ///< '\n' starts an indented continuation line
  bool list = false;  ///< repeatable: each occurrence adds one element
};

/// An option bound to the object it writes: what the parser sees.
struct BoundOption {
  const OptionInfo* info = nullptr;
  /// Apply one occurrence; `value` is "" for a switch and `first` marks
  /// the option's first occurrence.  Returns "" or what is wrong.
  std::function<std::string(const std::string& value, bool first)> set;
  /// The bound value as --help shows it; "" shows no default.
  std::function<std::string()> show;
};
using BoundOptions = std::vector<BoundOption>;

/// Parse `args` against `opts`.  Arguments that are neither a flag nor a
/// flag's value land in `positional`.  Returns "" or the first error,
/// which names the flag.
[[nodiscard]] std::string parse_command_line(
    const std::vector<std::string>& args, const BoundOptions& opts,
    std::vector<std::string>& positional);

/// Several bound sets as one, in argument order (the --help order).
[[nodiscard]] BoundOptions join(std::vector<BoundOptions> parts);

/// argv[1], ..., argv[argc - 1].
[[nodiscard]] std::vector<std::string> args_of(int argc, char** argv);

/// Parse a command's argv: the CLIs' and benches' front door.  Arguments
/// that are not flags land in `positional`, or are an error when it is
/// null.  Returns -1 to go on; 0 after printing `usage` and the help lines
/// for -h/--help (looked for first, so the defaults shown are untouched);
/// 2 after printing "<tool>: <error> (see --help)".
[[nodiscard]] int parse_flags(const char* tool, int argc, char** argv,
                              const BoundOptions& opts, const char* usage,
                              std::vector<std::string>* positional = nullptr);

/// The help lines of `opts`, in order.
[[nodiscard]] std::string options_help(const BoundOptions& opts);

/// The whole of `text` as a decimal integer in [lo, hi]; returns "" or
/// what is wrong.
[[nodiscard]] std::string parse_integer(const std::string& text, long long lo,
                                        long long hi, long long& out);

/// The whole of `text` as a number in [lo, hi]; returns "" or what is
/// wrong.
[[nodiscard]] std::string parse_real(const std::string& text, double lo,
                                     double hi, double& out);

/// Print "<tool>: <error>" unless `error` is empty; true when it is.
[[nodiscard]] bool report_error(const char* tool, const std::string& error);

/// argv[i] as a number in [lo, hi]; `value` keeps its default when
/// argc <= i.  The positional arguments of the small example and bench
/// programs.  Returns false after printing "<tool>: <problem>".
template <class V>
[[nodiscard]] bool positional_number(const char* tool, int argc, char** argv,
                                     int i, V lo, V hi, V& value) {
  if (argc <= i) return true;
  if constexpr (std::is_integral_v<V>) {
    long long n = 0;
    const std::string error = parse_integer(argv[i], lo, hi, n);
    value = static_cast<V>(n);
    return report_error(tool, error);
  } else {
    return report_error(tool, parse_real(argv[i], lo, hi, value));
  }
}

namespace option_detail {

enum class Kind { Integer, Real, Switch, Text };

/// A command-line value as the JSON a spec would carry.
[[nodiscard]] std::string from_text(Kind kind, bool on,
                                    const std::string& text, Json& out);
/// A JSON spec value checked for type (and range, for numbers).
[[nodiscard]] std::string integer_in(const Json& v, long long lo,
                                     long long hi, long long& out);
[[nodiscard]] std::string real_in(const Json& v, double lo, double hi,
                                  double& out);
[[nodiscard]] std::string bool_of(const Json& v, bool& out);
[[nodiscard]] std::string string_of(const Json& v, std::string& out);
/// A rendered value as --help shows its default.
[[nodiscard]] std::string show(const Json& v);

template <class Get, class T>
using field_t = std::remove_cvref_t<std::invoke_result_t<Get, T&>>;

}  // namespace option_detail

template <class T>
class OptionTable {
  using Kind = option_detail::Kind;

 public:
  /// An integral field in [lo, hi].
  template <class Get>
  OptionTable& integer(OptionInfo info, Get get, long long lo, long long hi) {
    using V = option_detail::field_t<Get, T>;
    return add(std::move(info), Kind::Integer, true,
               [get, lo, hi](T& t, const Json& v) {
                 long long n = 0;
                 std::string err = option_detail::integer_in(v, lo, hi, n);
                 if (err.empty()) std::invoke(get, t) = static_cast<V>(n);
                 return err;
               },
               [get](const T& t) {
                 return Json(static_cast<long long>(std::invoke(get, t)));
               });
  }

  /// A floating-point field in [lo, hi].
  template <class Get>
  OptionTable& real(OptionInfo info, Get get, double lo, double hi) {
    return add(std::move(info), Kind::Real, true,
               [get, lo, hi](T& t, const Json& v) {
                 double d = 0;
                 std::string err = option_detail::real_in(v, lo, hi, d);
                 if (err.empty()) std::invoke(get, t) = d;
                 return err;
               },
               [get](const T& t) { return Json(std::invoke(get, t)); });
  }

  /// A bool field: the flag stores `on`, the spec key takes a JSON bool
  /// (so "--no-dedup" and "dedup": false say the same thing).
  template <class Get>
  OptionTable& toggle(OptionInfo info, Get get, bool on) {
    return add(std::move(info), Kind::Switch, on,
               [get](T& t, const Json& v) {
                 bool b = false;
                 std::string err = option_detail::bool_of(v, b);
                 if (err.empty()) std::invoke(get, t) = b;
                 return err;
               },
               [get](const T& t) { return Json(std::invoke(get, t)); });
  }

  /// A free-text field (paths, file prefixes).
  template <class Get>
  OptionTable& text(OptionInfo info, Get get) {
    return add(std::move(info), Kind::Text, true,
               [get](T& t, const Json& v) {
                 return option_detail::string_of(v, std::invoke(get, t));
               },
               [get](const T& t) { return Json(std::invoke(get, t)); });
  }

  /// A value spelled as one token: `parse(text)` returns the value or
  /// throws std::invalid_argument; `render(value)` is its inverse.
  template <class Get, class Parse, class Render>
  OptionTable& token(OptionInfo info, Get get, Parse parse, Render render) {
    return add(std::move(info), Kind::Text, true,
               [get, parse](T& t, const Json& v) {
                 std::string s;
                 std::string err = option_detail::string_of(v, s);
                 if (!err.empty()) return err;
                 try {
                   std::invoke(get, t) = parse(s);
                 } catch (const std::invalid_argument& e) {
                   return std::string(e.what());
                 }
                 return std::string();
               },
               [get, render](const T& t) {
                 return Json(render(std::invoke(get, t)));
               });
  }

  /// An enum (or int) field whose values 0, 1, ... are spelled names[i].
  template <class Get>
  OptionTable& choice(OptionInfo info, Get get,
                      std::vector<std::string> names) {
    using V = option_detail::field_t<Get, T>;
    auto parse = [names](const std::string& s) {
      const auto it = std::find(names.begin(), names.end(), s);
      if (it == names.end()) {
        std::string want;
        for (const std::string& n : names) {
          want += (want.empty() ? "" : "|") + n;
        }
        throw std::invalid_argument("'" + s + "' is not " + want);
      }
      return static_cast<V>(it - names.begin());
    };
    auto render = [names](V v) {
      const auto i = static_cast<std::size_t>(v);
      return i < names.size() ? names[i] : std::string("?");
    };
    return token(std::move(info), get, parse, render);
  }

  /// A repeatable token list (std::vector of parse's result): the first
  /// occurrence replaces the default, later ones append; the spec key
  /// takes a non-empty JSON array of tokens.
  template <class Get, class Parse, class Render>
  OptionTable& tokens(OptionInfo info, Get get, Parse parse, Render render) {
    info.list = true;
    using V = option_detail::field_t<Get, T>;
    return add(std::move(info), Kind::Text, true,
               [get, parse](T& t, const Json& v) -> std::string {
                 if (!v.is_array() || v.items().empty()) {
                   return "want a non-empty array of tokens";
                 }
                 V out;
                 for (const Json& item : v.items()) {
                   if (!item.is_string()) return "want an array of tokens";
                   try {
                     out.push_back(parse(item.as_string()));
                   } catch (const std::invalid_argument& e) {
                     return e.what();
                   }
                 }
                 std::invoke(get, t) = std::move(out);
                 return {};
               },
               [get, render](const T& t) {
                 Json list = Json::array();
                 for (const auto& x : std::invoke(get, t)) {
                   list.push(Json(render(x)));
                 }
                 return list;
               });
  }

  /// Bind to `obj` the options named in `flags` (in that order: it is the
  /// --help order), or every option when `flags` is empty.
  [[nodiscard]] BoundOptions bind(
      T& obj, std::initializer_list<std::string_view> flags = {}) const {
    BoundOptions out;
    if (flags.size() == 0) {
      for (const Entry& e : entries_) out.push_back(bind_one(e, obj));
    }
    for (const std::string_view flag : flags) {
      const auto it = std::find_if(
          entries_.begin(), entries_.end(),
          [&](const Entry& e) { return e.info.flag == flag; });
      if (it == entries_.end()) {
        throw std::logic_error("no option " + std::string(flag));
      }
      out.push_back(bind_one(*it, obj));
    }
    return out;
  }

  /// The keyed options as flags that each write their key into `spec`,
  /// checked against a private T that starts out as `init`.
  [[nodiscard]] BoundOptions bind_spec(Json& spec, T init) const {
    auto obj = std::make_shared<T>(std::move(init));
    BoundOptions out;
    for (const Entry& e : entries_) {
      if (e.info.key.empty()) continue;
      BoundOption b = bind_one(e, *obj);
      b.set = [set = std::move(b.set), obj, &e, &spec](
                  const std::string& value, bool first) {
        std::string err = set(value, first);
        if (err.empty()) spec.set(e.info.key, e.render(*obj));
        return err;
      };
      out.push_back(std::move(b));
    }
    return out;
  }

  /// Apply every member of `spec` except `skip` to `obj`.  Returns "" or
  /// an error naming the key.
  [[nodiscard]] std::string decode(const Json& spec, T& obj,
                                   std::string_view skip = {}) const {
    if (!spec.is_object()) return "spec must be a JSON object";
    for (const auto& [key, value] : spec.members()) {
      if (!skip.empty() && key == skip) continue;
      const auto it = std::find_if(
          entries_.begin(), entries_.end(),
          [&](const Entry& e) { return !key.empty() && e.info.key == key; });
      if (it == entries_.end()) return "unknown key \"" + key + "\"";
      if (std::string err = it->decode(obj, value); !err.empty()) {
        return "\"" + key + "\": " + err;
      }
    }
    return {};
  }

  /// Every keyed option of `obj`, in table order, appended to `out`.
  [[nodiscard]] Json render(const T& obj, Json out = Json::object()) const {
    for (const Entry& e : entries_) {
      if (!e.info.key.empty()) out.set(e.info.key, e.render(obj));
    }
    return out;
  }

 private:
  struct Entry {
    OptionInfo info;
    Kind kind = Kind::Text;
    bool on = true;  ///< Switch: the value the flag stores
    std::function<std::string(T&, const Json&)> decode;
    std::function<Json(const T&)> render;
  };

  template <class Decode, class Render>
  OptionTable& add(OptionInfo info, Kind kind, bool on, Decode decode,
                   Render render) {
    if (kind == Kind::Switch) info.meta.clear();
    entries_.push_back({std::move(info), kind, on, std::move(decode),
                        std::move(render)});
    return *this;
  }

  [[nodiscard]] static BoundOption bind_one(const Entry& e, T& obj) {
    BoundOption b;
    b.info = &e.info;
    b.set = [&e, &obj](const std::string& text, bool first) {
      Json v;
      if (std::string err = option_detail::from_text(e.kind, e.on, text, v);
          !err.empty()) {
        return err;
      }
      if (e.info.list) {
        Json list = first ? Json::array() : e.render(obj);
        list.push(std::move(v));
        v = std::move(list);
      }
      return e.decode(obj, v);
    };
    b.show = [&e, &obj] {
      return e.kind == Kind::Switch ? std::string()
                                    : option_detail::show(e.render(obj));
    };
    return b;
  }

  std::vector<Entry> entries_;
};

/// Flags the engine CLIs and benches share.
struct RunOptions {
  int jobs = 0;          ///< worker threads; 0 = one per hardware thread
  bool progress = true;  ///< live meter on stderr
  std::string json;      ///< machine-readable result file ("" = none)
  /// EOF-relative flip window override (LO:HI).
  std::optional<std::pair<int, int>> window;
};

/// --jobs/-j, --no-progress, --json and --window.
[[nodiscard]] const OptionTable<RunOptions>& run_options();

}  // namespace mcan
