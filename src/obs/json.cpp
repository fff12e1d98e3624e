#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <locale>
#include <sstream>

#include <locale.h>  // newlocale/strtod_l (POSIX)

namespace fepia::obs {

void writeJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void writeJsonNumber(std::ostream& os, double x) {
  if (!std::isfinite(x)) {
    os << "null";
    return;
  }
  // Classic locale pinned: JSON requires '.' as the decimal separator
  // regardless of any std::locale::global the host process installed.
  std::ostringstream tmp;
  tmp.imbue(std::locale::classic());
  tmp.precision(17);
  tmp << x;
  os << tmp.str();
}

namespace {

/// from_chars reports overflow and underflow identically
/// (result_out_of_range, value left unmodified on GCC), so it cannot
/// saturate by itself. strtod in a pinned C locale — never the
/// process locale, whose decimal point may differ — supplies the
/// behavior every JSON reader has in practice: overflow → ±HUGE_VAL,
/// gradual underflow → ±0/denormal. Same idiom as io/parse.cpp.
double strtodCLocale(const char* nptr, char** endptr) {
  static const locale_t cLocale = ::newlocale(LC_ALL_MASK, "C", nullptr);
  if (cLocale != static_cast<locale_t>(nullptr)) {
    return ::strtod_l(nptr, endptr, cLocale);
  }
  return std::strtod(nptr, endptr);  // out of memory: best effort
}

class Parser {
 public:
  Parser(std::string_view text, int maxDepth)
      : text_(text), maxDepth_(maxDepth) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue v;
    if (!parseValue(v, 0)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skipWs();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = "trailing garbage after JSON document";
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const char* message) {
    error_ = std::string(message) + " at byte " + std::to_string(pos_);
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return fail("bad literal");
    pos_ += n;
    return true;
  }

  bool parseValue(JsonValue& out, int depth) {
    if (depth > maxDepth_) return fail("nesting too deep");
    skipWs();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        out.kind = JsonValue::Kind::Null;
        return literal("null");
      case 't':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        return literal("false");
      case '"':
        out.kind = JsonValue::Kind::String;
        return parseString(out.string);
      case '[':
        return parseArray(out, depth);
      case '{':
        return parseObject(out, depth);
      default:
        return parseNumber(out);
    }
  }

  bool parseNumber(JsonValue& out) {
    // Validate the JSON number grammar by hand (from_chars is laxer:
    // it accepts "1." and leading '+'), then convert the exact token.
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    std::size_t digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      ++digits;
    }
    if (digits == 0) return fail("bad number");
    if (digits > 1 && text_[start + (text_[start] == '-' ? 1u : 0u)] == '0') {
      return fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      std::size_t frac = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++frac;
      }
      if (frac == 0) return fail("bad number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      std::size_t exp = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++exp;
      }
      if (exp == 0) return fail("bad number");
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ptr != last ||
        (ec != std::errc() && ec != std::errc::result_out_of_range)) {
      return fail("bad number");
    }
    // Overflow saturates to +-inf, underflow to +-0, like every JSON
    // reader in practice; from_chars flags both without distinguishing
    // them (and stores nothing), so re-convert the validated token.
    if (ec == std::errc::result_out_of_range) {
      const std::string token(first, last);
      char* end = nullptr;
      value = strtodCLocale(token.c_str(), &end);
      if (end != token.c_str() + token.size()) return fail("bad number");
    }
    out.kind = JsonValue::Kind::Number;
    out.number = value;
    return true;
  }

  static void appendUtf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parseHex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
    }
    return true;
  }

  bool parseString(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      if (++pos_ >= text_.size()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parseHex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate — requires a paired \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("unpaired surrogate");
            }
            pos_ += 2;
            std::uint32_t lo = 0;
            if (!parseHex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          appendUtf8(out, cp);
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parseArray(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind = JsonValue::Kind::Array;
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue elem;
      if (!parseValue(elem, depth + 1)) return false;
      out.array.push_back(std::move(elem));
      skipWs();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parseObject(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::Object;
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parseString(key)) return false;
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':'");
      }
      ++pos_;
      JsonValue value;
      if (!parseValue(value, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skipWs();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  int maxDepth_;
  std::size_t pos_ = 0;
  std::string error_;
};

void serializeInto(std::ostream& os, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::Null:
      os << "null";
      break;
    case JsonValue::Kind::Bool:
      os << (v.boolean ? "true" : "false");
      break;
    case JsonValue::Kind::Number:
      writeJsonNumber(os, v.number);
      break;
    case JsonValue::Kind::String:
      writeJsonString(os, v.string);
      break;
    case JsonValue::Kind::Array: {
      os << '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) os << ',';
        serializeInto(os, v.array[i]);
      }
      os << ']';
      break;
    }
    case JsonValue::Kind::Object: {
      os << '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i > 0) os << ',';
        writeJsonString(os, v.object[i].first);
        os << ':';
        serializeInto(os, v.object[i].second);
      }
      os << '}';
      break;
    }
  }
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<JsonValue> parseJson(std::string_view text, std::string* error,
                                   int maxDepth) {
  return Parser(text, maxDepth).parse(error);
}

std::string serializeJson(const JsonValue& value) {
  std::ostringstream os;
  serializeInto(os, value);
  return os.str();
}

bool isValidJson(std::string_view text) {
  return parseJson(text, nullptr, 256).has_value();
}

}  // namespace fepia::obs
