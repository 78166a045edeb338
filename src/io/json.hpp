#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace lightnas::io {

/// Minimal JSON document model — enough to persist predictors, datasets
/// and search results without external dependencies. Numbers are stored
/// as double and written in their shortest round-trip form, so every
/// finite double (and every float32 weight widened to one) reads back bit
/// for bit; object keys keep insertion order irrelevant (std::map).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  explicit Json(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Json(double v) : type_(Type::kNumber), number_(v) {}
  explicit Json(int v) : Json(static_cast<double>(v)) {}
  explicit Json(std::size_t v) : Json(static_cast<double>(v)) {}
  explicit Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit Json(const char* s) : Json(std::string(s)) {}

  /// An empty array with room for `capacity` elements.
  static Json array(std::size_t capacity = 0);
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  // --- accessors (assert on type mismatch) ---------------------------
  bool as_bool() const;
  double as_number() const;
  /// Like as_number(), but maps null to NaN — the reader-side half of
  /// the "non-finite doubles serialize as null" convention.
  double number_or_nan() const;
  const std::string& as_string() const;
  const std::vector<Json>& as_array() const;
  const std::map<std::string, Json>& as_object() const;

  // --- builders --------------------------------------------------------
  void push_back(Json value);                       // array
  void set(const std::string& key, Json value);     // object
  bool contains(const std::string& key) const;      // object
  const Json& at(const std::string& key) const;     // object
  const Json& at(std::size_t index) const;          // array
  std::size_t size() const;                         // array/object

  /// Compact serialization (no insignificant whitespace).
  std::string dump() const;

  /// Parse; throws std::runtime_error with position info on bad input,
  /// including numbers outside the JSON grammar or the double range.
  static Json parse(const std::string& text);

  // --- convenience for numeric vectors --------------------------------
  static Json from_doubles(const std::vector<double>& values);
  static Json from_floats(const std::vector<float>& values);
  std::vector<double> to_doubles() const;
  std::vector<float> to_floats() const;

 private:
  void dump_to(std::string& out) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

/// Whole-file helpers; throw std::runtime_error on I/O failure.
void write_json_file(const std::string& path, const Json& value);
/// Crash-safe variant: writes `path + ".tmp"` then renames over `path`,
/// so readers never observe a torn file. Used for checkpoints.
void write_json_file_atomic(const std::string& path, const Json& value);
Json read_json_file(const std::string& path);

}  // namespace lightnas::io
