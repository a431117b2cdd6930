// A small JSON value type: the job-spec and wire-protocol representation.
//
// Deliberately small (no external parser is available in this tree):
// objects preserve insertion order so dumps are deterministic, integers
// are kept exact alongside doubles, and the NaN/Infinity sentinels written
// by util/text's json_number() round-trip back into doubles.  Parsing is
// depth-limited, so hostile input cannot exhaust the stack.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace mcan {

class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() = default;
  explicit Json(bool b) : type_(Type::Bool), b_(b) {}
  explicit Json(long long i) : type_(Type::Int), i_(i) {}
  explicit Json(double d) : type_(Type::Double), d_(d) {}
  explicit Json(std::string s) : type_(Type::String), s_(std::move(s)) {}
  explicit Json(const char* s) : type_(Type::String), s_(s) {}

  [[nodiscard]] static Json array() { return with_type(Type::Array); }
  [[nodiscard]] static Json object() { return with_type(Type::Object); }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }
  [[nodiscard]] bool is_number() const {
    return type_ == Type::Int || type_ == Type::Double;
  }

  [[nodiscard]] bool as_bool(bool dflt = false) const {
    return type_ == Type::Bool ? b_ : dflt;
  }
  [[nodiscard]] long long as_int(long long dflt = 0) const;
  /// Doubles, exact ints, and the json_number() sentinels ("NaN",
  /// "Infinity", "-Infinity") all convert.
  [[nodiscard]] double as_double(double dflt = 0) const;
  [[nodiscard]] const std::string& as_string() const { return s_; }

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Insert-or-replace an object member (keeps first-insertion order).
  Json& set(const std::string& key, Json v);
  /// Append an array element.
  Json& push(Json v);

  [[nodiscard]] const std::vector<Json>& items() const { return arr_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const {
    return obj_;
  }

  /// Compact deterministic serialization (insertion order, no spaces).
  [[nodiscard]] std::string dump() const;

  /// Parse `text` (one complete JSON value, trailing whitespace allowed).
  /// Returns false with a position-tagged message in `error`.
  [[nodiscard]] static bool parse(const std::string& text, Json& out,
                                  std::string& error);

 private:
  [[nodiscard]] static Json with_type(Type t) {
    Json j;
    j.type_ = t;
    return j;
  }

  Type type_ = Type::Null;
  bool b_ = false;
  long long i_ = 0;
  double d_ = 0;
  std::string s_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace mcan
