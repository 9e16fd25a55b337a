#include "service/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace pts::service::json {

namespace {

constexpr int kMaxDepth = 64;

std::size_t skip_whitespace(std::string_view text, std::size_t pos) {
  while (pos < text.size()) {
    const char c = text[pos];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos;
  }
  return pos;
}

// -- numbers ----------------------------------------------------------------

/// End of the number token at `pos`: an optional '-', then every following
/// character that can appear in a number.
std::size_t number_end(std::string_view text, std::size_t pos) {
  if (pos < text.size() && text[pos] == '-') ++pos;
  while (pos < text.size() && is_number_char(text[pos])) ++pos;
  return pos;
}

}  // namespace

bool read_number_token(std::string_view text, std::size_t pos, std::size_t& end,
                       double& out) {
  end = number_end(text, pos);
  const char* first = text.data() + pos;
  const char* last = text.data() + end;
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return end > pos && ec == std::errc() && ptr == last;
}

namespace {

// -- strings ----------------------------------------------------------------

const char* parse_hex4(std::string_view text, std::size_t& pos,
                       std::uint32_t& out) {
  if (text.size() - pos < 4) return "truncated \\u escape";
  out = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text[pos++];
    out <<= 4;
    if (c >= '0' && c <= '9') {
      out |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      out |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      out |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      return "invalid \\u escape";
    }
  }
  return nullptr;
}

void append_utf8(std::uint32_t cp, std::string& s) {
  if (cp < 0x80) {
    s += static_cast<char>(cp);
  } else if (cp < 0x800) {
    s += static_cast<char>(0xC0 | (cp >> 6));
    s += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    s += static_cast<char>(0xE0 | (cp >> 12));
    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    s += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    s += static_cast<char>(0xF0 | (cp >> 18));
    s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    s += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Scans a string body from just past its opening quote to just past its
/// closing one, decoding into *out when `out` is non-null. Returns nullptr,
/// or the reason the text is not a string (pos then marks the failure).
const char* scan_string(std::string_view text, std::size_t& pos,
                        std::string* out) {
  while (true) {
    if (pos >= text.size()) return "unterminated string";
    const char c = text[pos++];
    if (c == '"') return nullptr;
    if (static_cast<unsigned char>(c) < 0x20) {
      return "raw control character in string";
    }
    if (c != '\\') {
      if (out != nullptr) *out += c;  // UTF-8 bytes pass through verbatim
      continue;
    }
    if (pos >= text.size()) return "unterminated escape";
    char decoded = 0;
    switch (text[pos++]) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'n': decoded = '\n'; break;
      case 'r': decoded = '\r'; break;
      case 't': decoded = '\t'; break;
      case 'u': {
        std::uint32_t cp = 0;
        if (const char* why = parse_hex4(text, pos, cp)) return why;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: a low surrogate must follow.
          if (text.substr(pos, 2) != "\\u") return "lone surrogate";
          pos += 2;
          std::uint32_t low = 0;
          if (const char* why = parse_hex4(text, pos, low)) return why;
          if (low < 0xDC00 || low > 0xDFFF) return "lone surrogate";
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return "lone surrogate";
        }
        if (out != nullptr) append_utf8(cp, *out);
        continue;
      }
      default: return "invalid escape character";
    }
    if (out != nullptr) *out += decoded;
  }
}

void append_escaped(std::string_view s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

// -- validation -------------------------------------------------------------

/// Checks a document in one pass, recording in `spans`, in closing order,
/// every container of at least Document::kRecordedSpan bytes.
class Validator {
 public:
  Validator(std::string_view text, std::vector<Document::Span>& spans)
      : text_(text), spans_(spans) {}

  bool run(std::string* error) {
    if (!value(0)) {
      report(error);
      return false;
    }
    pos_ = skip_whitespace(text_, pos_);
    if (pos_ != text_.size()) {
      why_ = "trailing characters after document";
      report(error);
      return false;
    }
    return true;
  }

 private:
  void report(std::string* error) const {
    if (error == nullptr) return;
    *error = why_ == nullptr ? "malformed JSON" : why_;
    *error += " (at byte " + std::to_string(pos_) + ")";
  }

  bool fail(const char* why) {
    if (why_ == nullptr) why_ = why;
    return false;
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool value(int depth) {
    if (depth >= kMaxDepth) return fail("nesting too deep");
    pos_ = skip_whitespace(text_, pos_);
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n': return literal("null");
      case 't': return literal("true");
      case 'f': return literal("false");
      case '"': return string();
      case '[': return array(depth);
      case '{': return object(depth);
      default: return number();
    }
  }

  bool number() {
    std::size_t end = 0;
    double value = 0.0;
    if (!read_number(text_, pos_, end, value)) return fail("invalid number");
    pos_ = end;
    return true;
  }

  bool string() {
    if (!consume('"')) return fail("expected string");
    const char* why = scan_string(text_, pos_, nullptr);
    return why == nullptr || fail(why);
  }

  bool array(int depth) {
    const std::size_t open = pos_;
    consume('[');
    pos_ = skip_whitespace(text_, pos_);
    if (consume(']')) return closed(open);
    while (true) {
      if (!value(depth + 1)) return false;
      pos_ = skip_whitespace(text_, pos_);
      if (consume(']')) return closed(open);
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool object(int depth) {
    const std::size_t open = pos_;
    consume('{');
    pos_ = skip_whitespace(text_, pos_);
    if (consume('}')) return closed(open);
    while (true) {
      pos_ = skip_whitespace(text_, pos_);
      if (!string()) return false;
      pos_ = skip_whitespace(text_, pos_);
      if (!consume(':')) return fail("expected ':' in object");
      if (!value(depth + 1)) return false;
      pos_ = skip_whitespace(text_, pos_);
      if (consume('}')) return closed(open);
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  /// The container opened at `open` ends at pos_.
  bool closed(std::size_t open) {
    if (pos_ - open >= Document::kRecordedSpan) spans_.push_back({open, pos_});
    return true;
  }

  std::string_view text_;
  std::vector<Document::Span>& spans_;
  std::size_t pos_ = 0;
  const char* why_ = nullptr;
};

}  // namespace

// -- writer -----------------------------------------------------------------

Writer& Writer::key(std::string_view name) {
  string(name);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

void Writer::number(double value) {
  separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;  // 32 bytes always suffice for shortest-round-trip doubles
  out_.append(buf, end);
}

void Writer::boolean(bool value) {
  separate();
  out_ += value ? "true" : "false";
}

void Writer::string(std::string_view value) {
  separate();
  append_escaped(value, out_);
}

void Writer::null() {
  separate();
  out_ += "null";
}

void Writer::optional_number(const std::optional<double>& value) {
  if (value) {
    number(*value);
  } else {
    null();
  }
}

void Writer::numbers(std::span<const double> values) {
  begin_array();
  for (const double v : values) number(v);
  end_array();
}

// -- reader -----------------------------------------------------------------

bool Document::parse(std::string_view text, std::string* error) {
  text_ = text;
  spans_.clear();
  if (!Validator(text, spans_).run(error)) return false;
  // Containers close inner-first; lookups want them in opening order.
  std::sort(spans_.begin(), spans_.end(),
            [](const Span& x, const Span& y) { return x.open < y.open; });
  return true;
}

Node Document::root() const {
  return Node(*this, text_, skip_whitespace(text_, 0));
}

std::size_t Document::recorded_end(std::size_t open) const {
  const auto it = std::lower_bound(
      spans_.begin(), spans_.end(), open,
      [](const Span& span, std::size_t pos) { return span.open < pos; });
  return it != spans_.end() && it->open == open ? it->end : 0;
}

double Node::as_number() const {
  double value = 0.0;
  std::size_t end = 0;
  read_number(text_, pos_, end, value);
  return value;
}

std::string Node::as_string() const {
  std::string out;
  std::size_t pos = pos_ + 1;
  scan_string(text_, pos, &out);
  return out;
}

std::size_t Node::end() const {
  switch (text_[pos_]) {
    case 'n':
    case 't': return pos_ + 4;
    case 'f': return pos_ + 5;
    case '"': return string_end(pos_);
    case '[':
    case '{': {
      if (const std::size_t end = doc_->recorded_end(pos_)) return end;
      std::size_t depth = 0;
      std::size_t pos = pos_;
      while (true) {
        const char c = text_[pos];
        if (c == '"') {
          pos = string_end(pos);
          continue;
        }
        if (c == '[' || c == '{') {
          ++depth;
        } else if ((c == ']' || c == '}') && --depth == 0) {
          return pos + 1;
        }
        ++pos;
      }
    }
    default: return number_end(text_, pos_);
  }
}

std::size_t Node::string_end(std::size_t pos) const {
  ++pos;  // opening quote
  while (text_[pos] != '"') pos += text_[pos] == '\\' ? 2 : 1;
  return pos + 1;
}

std::size_t Node::value_after_colon(std::size_t pos) const {
  return skip_whitespace(text_, skip_whitespace(text_, pos) + 1);
}

bool key_equals(std::string_view raw_key, std::string_view key) {
  if (raw_key.find('\\') == std::string_view::npos) return raw_key == key;
  return decode_key(raw_key) == key;
}

std::string decode_key(std::string_view raw_key) {
  // The raw text sits between the key's quotes of a validated document, so
  // scanning it plus a closing quote decodes it.
  std::string quoted(raw_key);
  quoted += '"';
  std::string out;
  std::size_t pos = 0;
  scan_string(quoted, pos, &out);
  return out;
}

}  // namespace pts::service::json
