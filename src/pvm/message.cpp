#include "pvm/message.hpp"

#include <utility>

namespace pts::pvm {

const char* field_name(Field field) {
  switch (field) {
    case Field::None: return "none";
    case Field::U32: return "u32";
    case Field::U64: return "u64";
    case Field::I64: return "i64";
    case Field::F64: return "f64";
    case Field::Bool: return "bool";
    case Field::Str: return "string";
    case Field::VecU32: return "vec<u32>";
    case Field::VecF64: return "vec<f64>";
  }
  return "unknown";
}

Message Message::from_payload(int tag, std::vector<std::uint8_t> payload) {
  Message msg(tag);
  msg.buffer_ = std::move(payload);
  return msg;
}

namespace {

/// Payload size of a field body (marker byte excluded); for Str/Vec* this is
/// the size of the 8-byte length prefix only — the variable part is checked
/// against its decoded length. 0 = unknown marker.
std::size_t fixed_body_size(std::uint8_t marker) {
  switch (static_cast<Field>(marker)) {
    case Field::U32: return sizeof(std::uint32_t);
    case Field::U64: return sizeof(std::uint64_t);
    case Field::I64: return sizeof(std::int64_t);
    case Field::F64: return sizeof(double);
    case Field::Bool: return sizeof(std::uint8_t);
    case Field::Str:
    case Field::VecU32:
    case Field::VecF64: return sizeof(std::uint64_t);
    case Field::None: return 0;
  }
  return 0;
}

std::size_t element_size(Field field) {
  switch (field) {
    case Field::VecU32: return sizeof(std::uint32_t);
    case Field::VecF64: return sizeof(double);
    default: return 1;  // Str
  }
}

}  // namespace

Field Message::peek_field() const {
  if (cursor_ >= buffer_.size()) return Field::None;
  const auto marker = buffer_[cursor_];
  if (marker < static_cast<std::uint8_t>(Field::U32) ||
      marker > static_cast<std::uint8_t>(Field::VecF64)) {
    return Field::None;
  }
  return static_cast<Field>(marker);
}

bool Message::validate_layout() const {
  std::size_t pos = 0;
  while (pos < buffer_.size()) {
    const auto marker = buffer_[pos];
    const auto field = static_cast<Field>(marker);
    if (field < Field::U32 || field > Field::VecF64) return false;
    ++pos;
    const std::size_t body = fixed_body_size(marker);
    if (buffer_.size() - pos < body) return false;
    if (field == Field::Str || field == Field::VecU32 || field == Field::VecF64) {
      std::uint64_t n = 0;
      std::memcpy(&n, buffer_.data() + pos, sizeof(n));
      pos += sizeof(n);
      const std::size_t elem = element_size(field);
      if (n > (buffer_.size() - pos) / elem) return false;
      pos += static_cast<std::size_t>(n) * elem;
    } else {
      pos += body;
    }
  }
  return true;
}

void Message::put_raw(const void* data, std::size_t n) {
  if (n == 0) return;  // empty vector/string: data() may be null; memcpy UB
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + n);
}

void Message::get_raw(void* data, std::size_t n) {
  PTS_CHECK_MSG(cursor_ + n <= buffer_.size(), "message underflow");
  if (n == 0) return;
  std::memcpy(data, buffer_.data() + cursor_, n);
  cursor_ += n;
}

void Message::expect_marker(Marker m) {
  PTS_CHECK_MSG(cursor_ < buffer_.size(), "message underflow");
  const auto got = static_cast<Marker>(buffer_[cursor_]);
  PTS_CHECK_MSG(got == m, "message field type mismatch (unpack order?)");
  ++cursor_;
}

void Message::pack_string(std::string_view s) {
  put_marker(Marker::Str);
  const auto n = static_cast<std::uint64_t>(s.size());
  put_raw(&n, sizeof(n));
  put_raw(s.data(), s.size());
}

std::string Message::unpack_string() {
  expect_marker(Marker::Str);
  std::uint64_t n = 0;
  get_raw(&n, sizeof(n));
  PTS_CHECK_MSG(cursor_ + n <= buffer_.size(), "message underflow");
  std::string s(reinterpret_cast<const char*>(buffer_.data() + cursor_),
                static_cast<std::size_t>(n));
  cursor_ += static_cast<std::size_t>(n);
  return s;
}

void Message::pack_u32_vector(const std::vector<std::uint32_t>& v) {
  put_marker(Marker::VecU32);
  const auto n = static_cast<std::uint64_t>(v.size());
  put_raw(&n, sizeof(n));
  put_raw(v.data(), v.size() * sizeof(std::uint32_t));
}

std::vector<std::uint32_t> Message::unpack_u32_vector() {
  expect_marker(Marker::VecU32);
  std::uint64_t n = 0;
  get_raw(&n, sizeof(n));
  std::vector<std::uint32_t> v(static_cast<std::size_t>(n));
  get_raw(v.data(), v.size() * sizeof(std::uint32_t));
  return v;
}

void Message::pack_double_vector(const std::vector<double>& v) {
  put_marker(Marker::VecF64);
  const auto n = static_cast<std::uint64_t>(v.size());
  put_raw(&n, sizeof(n));
  put_raw(v.data(), v.size() * sizeof(double));
}

std::vector<double> Message::unpack_double_vector() {
  expect_marker(Marker::VecF64);
  std::uint64_t n = 0;
  get_raw(&n, sizeof(n));
  std::vector<double> v(static_cast<std::size_t>(n));
  get_raw(v.data(), v.size() * sizeof(double));
  return v;
}

}  // namespace pts::pvm
