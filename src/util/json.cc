#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ube::json {

namespace {

// ---------------------------------------------------------------------------
// Recursive-descent parser — just the subset the repo's files use. No
// external dependency is available in the container, and the schemas are
// tiny, so a ~100-line parser beats gating the suite on one.
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Parse() {
    Result<Value> value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Value> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  Result<Value> ParseObject() {
    ++pos_;  // '{'
    // The object is built in place inside the result: GCC 12 flags the
    // destructor of a moved-from Value{Object} temporary as reading an
    // uninitialized variant alternative (-Wmaybe-uninitialized).
    Result<Value> out = Value{};
    Object& object = out->data.emplace<Object>();
    if (Consume('}')) return out;
    while (true) {
      SkipWhitespace();
      Result<Value> key = ParseString();
      if (!key.ok()) return key;
      if (!Consume(':')) return Error("expected ':' after object key");
      Result<Value> value = ParseValue();
      if (!value.ok()) return value;
      object[std::get<std::string>(key->data)] = std::move(*value);
      if (Consume(',')) continue;
      if (Consume('}')) return out;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<Value> ParseArray() {
    ++pos_;  // '['
    Array array;
    if (Consume(']')) return Value{std::move(array)};
    while (true) {
      Result<Value> value = ParseValue();
      if (!value.ok()) return value;
      array.push_back(std::move(*value));
      if (Consume(',')) continue;
      if (Consume(']')) return Value{std::move(array)};
      return Error("expected ',' or ']' in array");
    }
  }

  Result<Value> ParseString() {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("bad escape");
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          default: return Error("unsupported escape sequence");
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;  // closing quote
    return Value{std::move(out)};
  }

  Result<Value> ParseBool() {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return Value{true};
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return Value{false};
    }
    return Error("expected boolean");
  }

  Result<Value> ParseNull() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return Value{nullptr};
    }
    return Error("expected null");
  }

  Result<Value> ParseNumber() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected number");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    return Value{value};
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) { return Parser(text).Parse(); }

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  // A non-"C" locale may render the decimal separator as ','.
  for (char* p = buffer; *p != '\0'; ++p) {
    if (*p == ',') *p = '.';
  }
  return buffer;
}

std::string EscapeString(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void Writer::Prefix() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (first_.empty()) return;
  if (first_.back()) {
    first_.back() = false;
  } else {
    out_.push_back(',');
  }
}

void Writer::BeginObject() {
  Prefix();
  out_.push_back('{');
  first_.push_back(true);
}

void Writer::EndObject() {
  first_.pop_back();
  out_.push_back('}');
}

void Writer::BeginArray() {
  Prefix();
  out_.push_back('[');
  first_.push_back(true);
}

void Writer::EndArray() {
  first_.pop_back();
  out_.push_back(']');
}

void Writer::Key(std::string_view key) {
  Prefix();
  out_ += EscapeString(key);
  out_.push_back(':');
  after_key_ = true;
}

void Writer::String(std::string_view value) {
  Prefix();
  out_ += EscapeString(value);
}

void Writer::Number(double value) {
  Prefix();
  out_ += FormatDouble(value);
}

void Writer::Number(int64_t value) {
  Prefix();
  out_ += std::to_string(value);
}

void Writer::Bool(bool value) {
  Prefix();
  out_ += value ? "true" : "false";
}

void Writer::Null() {
  Prefix();
  out_ += "null";
}

}  // namespace ube::json
