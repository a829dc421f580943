#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

#include "common/check.h"

namespace cloudalloc {

bool Json::as_bool() const {
  CHECK_MSG(is_bool(), "Json: not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  CHECK_MSG(is_number(), "Json: not a number");
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  CHECK_MSG(std::fabs(d - std::llround(d)) < 1e-9, "Json: not an integer");
  return std::llround(d);
}

const std::string& Json::as_string() const {
  CHECK_MSG(is_string(), "Json: not a string");
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  CHECK_MSG(is_array(), "Json: not an array");
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  CHECK_MSG(is_object(), "Json: not an object");
  return std::get<JsonObject>(value_);
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  CHECK_MSG(it != obj.end(), "Json: missing key");
  return it->second;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = std::get<JsonObject>(value_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

namespace {

void escape_into(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
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

void number_into(double d, std::string& out) {
  if (d == std::llround(d) && std::fabs(d) < 1e15) {
    out += std::to_string(std::llround(d));
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  // Recursive lambda over the variant.
  std::function<void(const Json&, int)> emit = [&](const Json& node,
                                                   int depth) {
    auto newline = [&](int d) {
      if (indent < 0) return;
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    };
    if (node.is_null()) {
      out += "null";
    } else if (node.is_bool()) {
      out += node.as_bool() ? "true" : "false";
    } else if (node.is_number()) {
      number_into(node.as_number(), out);
    } else if (node.is_string()) {
      escape_into(node.as_string(), out);
    } else if (node.is_array()) {
      const auto& arr = node.as_array();
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out += indent < 0 ? "," : ",";
        newline(depth + 1);
        emit(arr[i], depth + 1);
      }
      newline(depth);
      out += ']';
    } else {
      const auto& obj = node.as_object();
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out += ",";
        first = false;
        newline(depth + 1);
        escape_into(key, out);
        out += indent < 0 ? ":" : ": ";
        emit(value, depth + 1);
      }
      newline(depth);
      out += '}';
    }
  };
  emit(*this, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<Json> run(std::string* error) {
    auto value = parse_value();
    skip_ws();
    if (value && pos_ != text_.size()) {
      fail("trailing characters");
      value = std::nullopt;
    }
    if (!value && error != nullptr) {
      std::ostringstream os;
      os << error_ << " at offset " << pos_;
      *error = os.str();
    }
    return value;
  }

 private:
  void fail(const char* message) {
    if (error_.empty()) error_ = message;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    fail("invalid literal");
    return false;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case 'n':
        return literal("null") ? std::optional<Json>(Json(nullptr))
                               : std::nullopt;
      case 't':
        return literal("true") ? std::optional<Json>(Json(true))
                               : std::nullopt;
      case 'f':
        return literal("false") ? std::optional<Json>(Json(false))
                                : std::nullopt;
      case '"':
        return parse_string();
      case '[':
      case '{': {
        if (depth_ == Json::kMaxParseDepth) {
          fail("nesting too deep");
          return std::nullopt;
        }
        ++depth_;
        auto value = text_[pos_] == '[' ? parse_array() : parse_object();
        --depth_;
        return value;
      }
      default:
        return parse_number();
    }
  }

  std::optional<Json> parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Json(std::move(out));
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("bad \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          for (int d = 0; d < 4; ++d) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
              return std::nullopt;
            }
          }
          // UTF-8 encode the code point (BMP only; surrogates unpaired
          // are encoded as-is, adequate for this library's usage).
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
        default:
          fail("bad escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) {
      fail("invalid value");
      return std::nullopt;
    }
    try {
      std::size_t used = 0;
      const double d = std::stod(text_.substr(start, pos_ - start), &used);
      if (used != pos_ - start) {
        fail("invalid number");
        return std::nullopt;
      }
      return Json(d);
    } catch (...) {
      fail("invalid number");
      return std::nullopt;
    }
  }

  std::optional<Json> parse_array() {
    ++pos_;  // '['
    JsonArray out;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Json(std::move(out));
    }
    for (;;) {
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.push_back(std::move(*value));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated array");
        return std::nullopt;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Json(std::move(out));
      }
      fail("expected ',' or ']'");
      return std::nullopt;
    }
  }

  std::optional<Json> parse_object() {
    ++pos_;  // '{'
    JsonObject out;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Json(std::move(out));
    }
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        return std::nullopt;
      }
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        fail("expected ':'");
        return std::nullopt;
      }
      ++pos_;
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.emplace(key->as_string(), std::move(*value));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated object");
        return std::nullopt;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        // Built in place: a Json temporary moved into the optional trips
        // GCC 12's -Wmaybe-uninitialized in the inlined variant destructor.
        return std::optional<Json>(std::in_place, std::move(out));
      }
      fail("expected ',' or '}'");
      return std::nullopt;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open at pos_
  std::string error_;
};

}  // namespace

std::optional<Json> Json::parse(const std::string& text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace cloudalloc
