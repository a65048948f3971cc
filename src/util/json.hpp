#pragma once
// util::Json — a minimal ordered JSON document: parse, build, dump. Shared by
// the core SolveReport serializer, the serve/ wire protocol and the CLI
// drivers, so every JSON line the repo emits or accepts goes through one
// implementation. Objects keep insertion order (rendering is deterministic —
// the serving cache relies on byte-identical replay of a response), numbers
// are doubles, and non-finite numbers dump as null (JSON has no NaN/Inf;
// parse maps null back to NaN where the schema expects a number).
//
// Number contract (wire, store values and golden files depend on it):
//   * dump writes printf "%g" when that reads back as the same double, else
//     "%.17g", which always does — via std::to_chars, so the bytes are those
//     of printf in the "C" locale whatever the process locale is;
//   * parse reads with std::from_chars, exact and locale-independent; a
//     magnitude out of double range reads as ±inf (overflow) or ±0
//     (underflow), as strtod gives it;
//   * so parse(dump(x)) is bit-identical to x for every finite double.
//
// The parser is defensive — it fronts a TCP server: depth-limited recursion,
// exact offsets in errors, no exceptions other than JsonError.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cnash::util {

/// Thrown on malformed input with the 0-based byte offset of the failure.
class JsonError : public std::runtime_error {
 public:
  JsonError(std::size_t offset, const std::string& message);
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null

  static Json null() { return Json(); }
  static Json boolean(bool v);
  static Json number(double v);
  static Json string(std::string v);
  static Json array();
  static Json object();

  /// Parse one complete JSON document (trailing whitespace allowed, trailing
  /// garbage is an error). Throws JsonError.
  static Json parse(const std::string& text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError(0, ...) on a type mismatch so protocol
  /// handlers surface schema errors uniformly.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array / object size (0 for scalars).
  std::size_t size() const;

  /// Array element access (throws on range/type errors).
  const Json& at(std::size_t index) const;

  /// Object member lookup; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
  /// find() or throw JsonError naming the missing key.
  const Json& at(const std::string& key) const;

  /// Object members / array elements in document order. Array elements carry
  /// empty keys.
  const std::vector<std::pair<std::string, Json>>& members() const {
    return children_;
  }

  // ---- Builders (turn *this into an object/array as needed) ----------------
  Json& set(const std::string& key, Json v);
  Json& set(const std::string& key, double v) { return set(key, number(v)); }
  Json& set(const std::string& key, int v) {
    return set(key, number(static_cast<double>(v)));
  }
  Json& set(const std::string& key, std::size_t v) {
    return set(key, number(static_cast<double>(v)));
  }
  Json& set(const std::string& key, bool v) { return set(key, boolean(v)); }
  Json& set(const std::string& key, const char* v) {
    return set(key, string(v));
  }
  Json& set(const std::string& key, const std::string& v) {
    return set(key, string(v));
  }
  /// Appends to an array (turns a null into an array first) and returns the
  /// appended element.
  Json& push(Json v);
  Json& push() { return push(Json()); }

  /// Compact single-line rendering (the wire format).
  std::string dump() const;
  /// dump() appended to `out`.
  void dump_append(std::string& out) const { dump_to(out, 0, 0); }
  /// Indented rendering (golden files, human inspection).
  std::string pretty(int indent = 2) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool flag_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<std::pair<std::string, Json>> children_;
};

/// Streaming writers for code that renders a fixed schema without building
/// a tree (core::append_report_json); dump() is made of the same two.
/// Appends `s` as a quoted, escaped JSON string.
void append_json_string(std::string& out, std::string_view s);
/// Appends `v` per the number contract above (non-finite → null).
void append_json_number(std::string& out, double v);

}  // namespace cnash::util
