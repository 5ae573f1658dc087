// Minimal JSON parser for in-tree consumers (the `gluefl profile` differ
// and the trace-schema tests). Recursive descent over the full JSON
// grammar, no external dependencies; object key order is preserved so
// round-trip diagnostics stay readable.
//
// Emission is hand-composed by the CLI and the event-log report so the
// byte-identity contracts (resume, tracing on/off) stay under their
// control; this header supplies the shared scalar formatters they compose
// with.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace gluefl {
namespace json {

/// Thrown on malformed input; the message carries a byte offset.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed JSON value. One tagged struct instead of a variant keeps the
/// accessor code trivial; parsed documents here are small (run summaries,
/// trace files from smoke runs).
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;  // insertion order

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Returns the member value or nullptr (objects only; first match).
  const Value* find(const std::string& key) const;

  /// Like find() but throws JsonError naming the missing key.
  const Value& at(const std::string& key) const;
};

/// Parses one JSON document; trailing non-whitespace is an error.
Value parse(const std::string& text);

/// A JSON number with 10 significant digits; `null` for NaN/inf.
std::string jnum(double v);

/// A quoted, escaped JSON string.
std::string jstr(const std::string& s);

}  // namespace json
}  // namespace gluefl
