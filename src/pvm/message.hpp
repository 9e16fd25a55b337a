// Typed message buffers, modeled on PVM's pvm_pk*/pvm_upk* interface.
//
// A Message is a tagged byte buffer written with pack_* calls and read back
// with unpack_* calls in the same order. Each field is prefixed with a
// one-byte type marker so mismatched unpack sequences fail loudly instead
// of silently mis-deserializing (PVM itself would just corrupt the data).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "support/check.hpp"

namespace pts::pvm {

/// Task identifier within a VirtualMachine (0 is the spawning host task).
using TaskId = std::int32_t;
inline constexpr TaskId kNoTask = -1;

/// Public mirror of the private field markers, used by the hardened decode
/// path (peek_field / validate_layout): code that consumes untrusted bytes
/// checks the next field's type before unpacking it, so a schema mismatch
/// becomes a recoverable protocol error instead of a PTS_CHECK abort.
enum class Field : std::uint8_t {
  None = 0,  ///< end of buffer, or an unknown marker byte
  U32,
  U64,
  I64,
  F64,
  Bool,
  Str,
  VecU32,
  VecF64,
};

const char* field_name(Field field);

class Message {
 public:
  Message() = default;
  explicit Message(int tag) : tag_(tag) {}

  int tag() const { return tag_; }
  void set_tag(int tag) { tag_ = tag; }
  TaskId sender() const { return sender_; }
  void set_sender(TaskId sender) { sender_ = sender; }

  std::size_t byte_size() const { return buffer_.size(); }
  bool fully_consumed() const { return cursor_ == buffer_.size(); }
  /// Resets the read cursor so the message can be unpacked again.
  void rewind() { cursor_ = 0; }

  /// Raw encoded payload (what a wire frame carries; see pvm/frame.hpp).
  const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  /// Rebuilds a Message from wire bytes. The payload is adopted verbatim;
  /// run validate_layout() before unpacking anything untrusted.
  static Message from_payload(int tag, std::vector<std::uint8_t> payload);

  // -- hardened decode (untrusted input) ------------------------------------
  // unpack_* PTS_CHECK-aborts on a malformed buffer — correct for intra-
  // process mailboxes where a mismatch is a programming error, fatal for a
  // daemon fed attacker-controlled bytes. Untrusted consumers first call
  // validate_layout() (every field complete and in-bounds), then gate each
  // unpack on peek_field(); after both checks no unpack_* can abort.

  /// Type of the next unread field without consuming it; Field::None at the
  /// end of the buffer or on an unrecognized marker byte.
  Field peek_field() const;
  /// Walks the whole buffer (independent of the read cursor): true iff every
  /// field has a known marker and its payload lies fully inside the buffer.
  bool validate_layout() const;

  // -- packing ------------------------------------------------------------
  void pack_u64(std::uint64_t v) { pack_scalar(Marker::U64, v); }
  void pack_i64(std::int64_t v) { pack_scalar(Marker::I64, v); }
  void pack_u32(std::uint32_t v) { pack_scalar(Marker::U32, v); }
  void pack_double(double v) { pack_scalar(Marker::F64, v); }
  void pack_bool(bool v) { pack_scalar(Marker::Bool, static_cast<std::uint8_t>(v)); }
  void pack_string(std::string_view s);
  void pack_u32_vector(const std::vector<std::uint32_t>& v);
  void pack_double_vector(const std::vector<double>& v);

  // -- unpacking (order must mirror packing) --------------------------------
  std::uint64_t unpack_u64() { return unpack_scalar<std::uint64_t>(Marker::U64); }
  std::int64_t unpack_i64() { return unpack_scalar<std::int64_t>(Marker::I64); }
  std::uint32_t unpack_u32() { return unpack_scalar<std::uint32_t>(Marker::U32); }
  double unpack_double() { return unpack_scalar<double>(Marker::F64); }
  bool unpack_bool() { return unpack_scalar<std::uint8_t>(Marker::Bool) != 0; }
  std::string unpack_string();
  std::vector<std::uint32_t> unpack_u32_vector();
  std::vector<double> unpack_double_vector();

 private:
  enum class Marker : std::uint8_t {
    U32 = 1,
    U64,
    I64,
    F64,
    Bool,
    Str,
    VecU32,
    VecF64,
  };

  void put_marker(Marker m) { buffer_.push_back(static_cast<std::uint8_t>(m)); }
  void expect_marker(Marker m);
  void put_raw(const void* data, std::size_t n);
  void get_raw(void* data, std::size_t n);

  template <typename T>
  void pack_scalar(Marker m, T v) {
    put_marker(m);
    put_raw(&v, sizeof(T));
  }
  template <typename T>
  T unpack_scalar(Marker m) {
    expect_marker(m);
    T v;
    get_raw(&v, sizeof(T));
    return v;
  }

  int tag_ = 0;
  TaskId sender_ = kNoTask;
  std::vector<std::uint8_t> buffer_;
  std::size_t cursor_ = 0;
};

}  // namespace pts::pvm
