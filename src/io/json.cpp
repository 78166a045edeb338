#include "io/json.hpp"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace lightnas::io {

Json Json::array(std::size_t capacity) {
  Json j;
  j.type_ = Type::kArray;
  j.array_.reserve(capacity);
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool() const {
  assert(type_ == Type::kBool);
  return bool_;
}

double Json::as_number() const {
  assert(type_ == Type::kNumber);
  return number_;
}

const std::string& Json::as_string() const {
  assert(type_ == Type::kString);
  return string_;
}

const std::vector<Json>& Json::as_array() const {
  assert(type_ == Type::kArray);
  return array_;
}

const std::map<std::string, Json>& Json::as_object() const {
  assert(type_ == Type::kObject);
  return object_;
}

void Json::push_back(Json value) {
  assert(type_ == Type::kArray);
  array_.push_back(std::move(value));
}

void Json::set(const std::string& key, Json value) {
  assert(type_ == Type::kObject);
  object_[key] = std::move(value);
}

bool Json::contains(const std::string& key) const {
  assert(type_ == Type::kObject);
  return object_.count(key) != 0;
}

const Json& Json::at(const std::string& key) const {
  assert(type_ == Type::kObject);
  auto it = object_.find(key);
  if (it == object_.end()) {
    throw std::runtime_error("json: missing key '" + key + "'");
  }
  return it->second;
}

const Json& Json::at(std::size_t index) const {
  assert(type_ == Type::kArray);
  if (index >= array_.size()) {
    throw std::runtime_error("json: index out of range");
  }
  return array_[index];
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double v, std::string& out) {
  // JSON has no literal for NaN/inf; emit null instead. Readers map null
  // back to NaN (Json::number_or_nan, to_doubles).
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  char* p = buf;
  std::to_chars_result r;
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    if (std::signbit(v)) *p++ = '-';  // -0.0 keeps its sign
    r = std::to_chars(p, buf + sizeof(buf),
                      static_cast<std::uint64_t>(std::abs(v)));
  } else {
    // The shortest text that reads back as the same double: every value,
    // subnormals included, restores bit for bit (checkpoint resume).
    r = std::to_chars(p, buf + sizeof(buf), v);
  }
  out.append(buf, r.ptr);
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      dump_number(number_, out);
      break;
    case Type::kString:
      dump_string(string_, out);
      break;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& v : array_) {
        if (!first) out += ',';
        first = false;
        v.dump_to(out);
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        dump_string(key, out);
        out += ':';
        value.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + message);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool try_consume(std::string_view literal) {
    if (text_.compare(pos_, literal.size(), literal) == 0) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json(parse_string());
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return parse_number();
    }
    if (try_consume("null")) return Json();
    if (try_consume("true")) return Json(true);
    if (try_consume("false")) return Json(false);
    fail("expected a value");
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            const char* hex = text_.data() + pos_;
            unsigned code = 0;
            const auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
            if (ec != std::errc() || end != hex + 4) fail("bad \\u escape");
            pos_ += 4;
            // We only emit \u for control chars; decode BMP as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool at_digit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }

  void digits() {
    if (!at_digit()) fail("malformed number");
    while (at_digit()) ++pos_;
  }

  // JSON grammar: -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?
  Json parse_number() {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else {
      digits();
    }
    if (at('.')) {
      ++pos_;
      digits();
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      digits();
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last) fail("malformed number");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse();
}

// No exact reserve in these two: with one, glibc kept a freed predictor
// tree resident and serving's peak RSS rose ~5 %. Checkpoint tensors go
// through tensor_to_json, which does reserve.
Json Json::from_doubles(const std::vector<double>& values) {
  Json arr = Json::array();
  for (double v : values) arr.push_back(Json(v));
  return arr;
}

Json Json::from_floats(const std::vector<float>& values) {
  Json arr = Json::array();
  for (float v : values) arr.push_back(Json(static_cast<double>(v)));
  return arr;
}

double Json::number_or_nan() const {
  if (type_ == Type::kNull) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return as_number();
}

std::vector<double> Json::to_doubles() const {
  std::vector<double> out;
  out.reserve(as_array().size());
  for (const Json& v : as_array()) out.push_back(v.number_or_nan());
  return out;
}

std::vector<float> Json::to_floats() const {
  std::vector<float> out;
  out.reserve(as_array().size());
  for (const Json& v : as_array()) {
    // A double beyond float range would make the cast UB; it reads as
    // +-inf instead, which loaders then reject as non-finite.
    const double d = v.number_or_nan();
    const double max = std::numeric_limits<float>::max();
    const float inf = std::numeric_limits<float>::infinity();
    out.push_back(d > max ? inf : d < -max ? -inf : static_cast<float>(d));
  }
  return out;
}

void write_json_file(const std::string& path, const Json& value) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out << value.dump();
  if (!out.good()) throw std::runtime_error("write failed: " + path);
}

void write_json_file_atomic(const std::string& path, const Json& value) {
  // Write-temp-then-rename so a crash mid-write never leaves a torn
  // artifact at `path` — essential for checkpoints a resume depends on.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open for write: " + tmp);
    out << value.dump();
    out.flush();
    if (!out.good()) throw std::runtime_error("write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("atomic rename failed for: " + path);
  }
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Json::parse(buffer.str());
}

}  // namespace lightnas::io
