#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace symcolor {
namespace {

// Recursive-descent parser over a string_view cursor. Depth is threaded
// explicitly and capped at Json::kMaxDepth (see the header's robustness
// notes).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run() {
    std::optional<Json> v = value(0);
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume(char expected) {
    if (eof() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Json> value(int depth) {
    if (depth > Json::kMaxDepth) return std::nullopt;
    skip_ws();
    if (eof()) return std::nullopt;
    switch (peek()) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': {
        std::optional<std::string> s = string();
        if (!s) return std::nullopt;
        return Json(std::move(*s));
      }
      case 't': return consume_word("true") ? std::optional<Json>(Json(true))
                                            : std::nullopt;
      case 'f': return consume_word("false") ? std::optional<Json>(Json(false))
                                             : std::nullopt;
      case 'n': return consume_word("null")
                           ? std::optional<Json>(Json(nullptr))
                           : std::nullopt;
      default: return number();
    }
  }

  std::optional<Json> number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    bool digits = false;
    bool integral = true;
    while (!eof()) {
      const char c = peek();
      if (c >= '0' && c <= '9') {
        digits = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) return std::nullopt;
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t out = 0;
      const auto [ptr, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), out);
      if (ec == std::errc{} && ptr == tok.data() + tok.size()) {
        return Json(out);
      }
      // Out-of-range integer literal: fall through to double.
    }
    double out = 0.0;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), out);
    if (ec != std::errc{} || ptr != tok.data() + tok.size() ||
        !std::isfinite(out)) {
      return std::nullopt;
    }
    return Json(out);
  }

  std::optional<std::string> string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (!eof()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // UTF-8 encode the BMP code point (surrogate pairs are beyond
          // what the protocol needs; lone surrogates encode as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> array(int depth) {
    if (!consume('[')) return std::nullopt;
    Json::Array items;
    skip_ws();
    if (consume(']')) return Json(std::move(items));
    for (;;) {
      std::optional<Json> v = value(depth + 1);
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      skip_ws();
      if (consume(']')) return Json(std::move(items));
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<Json> object(int depth) {
    if (!consume('{')) return std::nullopt;
    Json::Object members;
    skip_ws();
    // The result is built in place: moving a temporary Json into the
    // optional draws false GCC 12 -Wmaybe-uninitialized warnings.
    if (consume('}')) {
      return std::optional<Json>(std::in_place, std::move(members));
    }
    for (;;) {
      skip_ws();
      std::optional<std::string> key = string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      std::optional<Json> v = value(depth + 1);
      if (!v) return std::nullopt;
      members[std::move(*key)] = std::move(*v);
      skip_ws();
      if (consume('}')) {
        return std::optional<Json>(std::in_place, std::move(members));
      }
      if (!consume(',')) return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  return Parser(text).run();
}

std::string Json::dump() const {
  std::string out;
  if (is_null()) {
    out = "null";
  } else if (is_bool()) {
    out = as_bool() ? "true" : "false";
  } else if (is_int()) {
    out = std::to_string(as_int());
  } else if (is_number()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", as_double());
    out = buf;
  } else if (is_string()) {
    dump_string(as_string(), &out);
  } else if (is_array()) {
    out.push_back('[');
    bool first = true;
    for (const Json& item : as_array()) {
      if (!first) out.push_back(',');
      first = false;
      out += item.dump();
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, item] : as_object()) {
      if (!first) out.push_back(',');
      first = false;
      dump_string(key, &out);
      out.push_back(':');
      out += item.dump();
    }
    out.push_back('}');
  }
  return out;
}

}  // namespace symcolor
