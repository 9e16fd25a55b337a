// Streaming JSON for the serving layer: a writer that appends straight to
// its output and a strict reader over the document text. Neither side
// builds a tree — there is no heap node per value. The daemon and the
// pts_client CLI exchange SolveSpec / SolveResult as JSON
// (service/codec.hpp), and checkpoints persist as JSON
// (solver/checkpoint.hpp); both go through service/schema.hpp on top of
// this file.
//
// Writer: compact output (no whitespace), members in call order, commas
// placed by the writer. Doubles print with std::to_chars — the shortest
// decimal that parses back to the same bits — so a SolveResult that crosses
// the wire compares bit-identical to the in-process one. Integers travel as
// doubles and print the same way (100000 prints as 1e+05). Non-finite
// doubles print as null (JSON has no NaN/Inf).
//
// Reader: Document::parse() validates the whole text in one pass first, so
// a syntax error is always reported before any schema error; Node then
// reads values in place over the validated text. The same pass records
// where each long container ends, so stepping over one (Node::end) never
// scans it a second time. The accepted language is pinned from outside by
// tests/wire_corpus_test.cpp:
//  - a number is an optional '-' and the longest run of [0-9.eE+-] after
//    it, which std::from_chars must consume whole into a finite double —
//    so 01, .5, 1. and 1e+05 are numbers, and +1, 1e999 and 1-2 are not.
//    Digit-only tokens of at most 15 digits are exact integers and skip
//    from_chars;
//  - strings decode \" \\ \/ \b \f \n \r \t and \uXXXX (surrogates must
//    pair) to UTF-8; raw control characters are errors; other bytes pass
//    through;
//  - nesting deeper than 64 levels is an error;
//  - an object may repeat a key; readers take the last value;
//  - errors read "<why> (at byte N)" and never abort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pts::service::json {

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  /// Object member name; the next value call writes its value.
  Writer& key(std::string_view name);

  void number(double value);
  void boolean(bool value);
  void string(std::string_view value);
  void null();
  /// A number, or null when absent.
  void optional_number(const std::optional<double>& value);
  void numbers(std::span<const double> values);

 private:
  void separate() {
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }
  void open(char bracket) {
    separate();
    out_ += bracket;
    need_comma_ = false;
  }
  void close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
  }

  std::string& out_;
  bool need_comma_ = false;
};

/// True for the characters a number token is scanned over.
inline bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

/// The general number read: scans the token at `pos` and parses it with
/// std::from_chars. False when the text there is not a number.
bool read_number_token(std::string_view text, std::size_t pos, std::size_t& end,
                       double& out);

/// Reads the number token at `pos` (the scan and fast path above). False
/// when the text there is not a number; otherwise sets `end` past it.
inline bool read_number(std::string_view text, std::size_t pos, std::size_t& end,
                        double& out) {
  // Up to 15 decimal digits are exact in a double, so a digit-only token
  // that short is summed directly; any other token goes to from_chars.
  std::uint64_t whole = 0;
  std::size_t i = pos;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    whole = whole * 10 + static_cast<std::uint64_t>(text[i] - '0');
    ++i;
  }
  if (i > pos && i - pos <= 15 && (i == text.size() || !is_number_char(text[i]))) {
    end = i;
    out = static_cast<double>(whole);
    return true;
  }
  return read_number_token(text, pos, end, out);
}

enum class Kind { Null, Bool, Number, String, Array, Object };

class Node;

/// A validated document: its text and where each of its long containers
/// ends. The validating pass records the end of every array or object of at
/// least kRecordedSpan bytes; Node::end() looks those up and scans only the
/// shorter ones, which costs at most their own length.
class Document {
 public:
  /// Containers at least this long are recorded. Leaving shorter ones out
  /// bounds the table to one entry per kRecordedSpan bytes of text per
  /// nesting level, whatever the text holds.
  static constexpr std::size_t kRecordedSpan = 1024;

  /// A recorded container: its opening bracket and the offset just past
  /// its closing one.
  struct Span {
    std::size_t open = 0;
    std::size_t end = 0;
  };

  Document() = default;
  // Every Node read from a document points at it.
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// Checks that `text` is exactly one JSON document of the language above
  /// (trailing garbage is an error). On failure returns false and, when
  /// `error` is non-null, sets it to "<why> (at byte N)". `text` must
  /// outlive this document and every Node read from it.
  bool parse(std::string_view text, std::string* error);

  /// The top-level value; requires a successful parse().
  Node root() const;

 private:
  friend class Node;

  /// Offset just past the recorded container that opens at `open`, or 0
  /// when none opens there (the container is shorter than kRecordedSpan).
  std::size_t recorded_end(std::size_t open) const;

  std::string_view text_;
  std::vector<Span> spans_;  ///< ascending by open
};

/// One value inside a parsed Document: the text and the offset of the
/// value's first byte. Reading scans the text; nothing is stored per value.
class Node {
 public:
  Kind kind() const {
    switch (text_[pos_]) {
      case 'n': return Kind::Null;
      case 't':
      case 'f': return Kind::Bool;
      case '"': return Kind::String;
      case '[': return Kind::Array;
      case '{': return Kind::Object;
      default: return Kind::Number;
    }
  }
  // Accessors assume the matching kind (the schema layer checks first).
  bool as_bool() const { return text_[pos_] == 't'; }
  double as_number() const;
  /// The string with its escapes decoded.
  std::string as_string() const;
  /// Offset just past this value (a table lookup for a long container).
  std::size_t end() const;

  /// Calls fn(Node) for each array element in order while fn returns true.
  template <typename Fn>
  void for_each_item(Fn&& fn) const {
    std::size_t pos = first_entry();
    while (pos != kNone) {
      const Node item(*doc_, text_, pos);
      if (!fn(item)) return;
      pos = next_entry(item.end());
    }
  }

  /// Calls fn(double) for each array element while fn returns true. False
  /// when fn stopped or an element is not a number.
  template <typename Fn>
  bool for_each_number(Fn&& fn) const {
    std::size_t pos = first_entry();
    while (pos != kNone) {
      double value = 0.0;
      std::size_t end = 0;
      if (kind_at(pos) != Kind::Number || !read_number(text_, pos, end, value) ||
          !fn(value)) {
        return false;
      }
      pos = next_entry(end);
    }
    return true;
  }

  /// Calls fn(raw_key, Node) for each object member in document order.
  /// `raw_key` is the text between the key's quotes, escapes undecoded.
  template <typename Fn>
  void for_each_member(Fn&& fn) const {
    std::size_t pos = first_entry();
    while (pos != kNone) {
      const std::size_t key_end = string_end(pos);
      const std::string_view raw_key = text_.substr(pos + 1, key_end - pos - 2);
      const Node value(*doc_, text_, value_after_colon(key_end));
      fn(raw_key, value);
      pos = next_entry(value.end());
    }
  }

 private:
  friend class Document;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  Node(const Document& doc, std::string_view text, std::size_t pos)
      : doc_(&doc), text_(text), pos_(pos) {}

  Kind kind_at(std::size_t pos) const { return Node(*doc_, text_, pos).kind(); }
  std::size_t skip_ws(std::size_t pos) const {
    while (text_[pos] == ' ' || text_[pos] == '\t' || text_[pos] == '\n' ||
           text_[pos] == '\r') {
      ++pos;
    }
    return pos;
  }
  /// First entry of this array/object, or kNone when it is empty.
  std::size_t first_entry() const {
    const std::size_t pos = skip_ws(pos_ + 1);
    return text_[pos] == ']' || text_[pos] == '}' ? kNone : pos;
  }
  /// The entry after a ',' at or after `pos`, or kNone at the closing bracket.
  std::size_t next_entry(std::size_t pos) const {
    pos = skip_ws(pos);
    return text_[pos] == ',' ? skip_ws(pos + 1) : kNone;
  }
  std::size_t string_end(std::size_t pos) const;
  std::size_t value_after_colon(std::size_t pos) const;

  const Document* doc_;
  std::string_view text_;
  std::size_t pos_;
};

/// True when raw (undecoded) key text names `key`.
bool key_equals(std::string_view raw_key, std::string_view key);
/// Raw key text with its escapes decoded.
std::string decode_key(std::string_view raw_key);

}  // namespace pts::service::json
