// Strict schema layer over service/json.hpp: the one reader and the one
// set of record writers that every stored or exchanged JSON document goes
// through — solve specs and results (service/codec.hpp) and checkpoints
// (solver/checkpoint.hpp) — including the records those documents share
// (Series, Objectives, SearchStats, id and value arrays).
//
// Decoding is two steps over the text, never a tree: json::Document::parse
// checks the whole document (so a syntax error always wins over a schema
// error), then an ObjectReader per object indexes that object's members
// once and reads each asked-for member in place — arrays straight into
// their output vectors, numbers with the digit fast path of json.hpp.
// Members may come in any order; of repeated keys the last one counts.
//
// One rule set for every document:
//  - unknown keys are rejected (finish());
//  - numbers must be finite; integers must be integral, non-negative, at
//    most 2^53 (doubles are exact only that far) and at most the target
//    type's maximum; u64 values that need all 64 bits travel as hex
//    strings (read_hex_u64);
//  - the first error wins, prefixed with the dotted path of the object it
//    was found in ("spec.tabu: ...", "checkpoint.search.rng: ..."). "First"
//    follows the order of the read_* calls, not the document order, so the
//    error a document earns does not depend on how its members are ordered.
// Which keys are required is per schema: a reader made with Keys::Required
// (and every nested reader it hands out) reports an absent key; one made
// with Keys::Optional leaves the output at its default.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cost/fuzzy.hpp"
#include "service/json.hpp"
#include "support/stats.hpp"
#include "tabu/search.hpp"

namespace pts::service {

class ObjectReader {
 public:
  enum class Keys { Optional, Required };

  /// Largest integer a JSON number carries exactly.
  static constexpr std::uint64_t kMaxExactInt = std::uint64_t{1} << 53;

  /// Reads the object `node` found at dotted `path`, recording the first
  /// error of the whole document into `error` (shared with nested readers).
  ObjectReader(json::Node node, std::string path, std::string& error,
               Keys keys = Keys::Optional);

  void read_string(const char* key, std::string& out);
  void read_bool(const char* key, bool& out);
  void read_double(const char* key, double& out);
  /// A finite number or null (null resets `out`).
  void read_opt_double(const char* key, std::optional<double>& out);

  template <typename UInt>
  void read_uint(const char* key, UInt& out) {
    std::uint64_t u = 0;
    if (read_uint_max(key, max_of<UInt>(), u)) out = static_cast<UInt>(u);
  }

  /// A u64 written as a hex string (full 64-bit range).
  void read_hex_u64(const char* key, std::uint64_t& out);
  /// An array of exactly out.size() hex u64 strings.
  void read_hex_u64s(const char* key, std::span<std::uint64_t> out);
  /// An array of finite numbers.
  void read_doubles(const char* key, std::vector<double>& out);

  /// An array of integers, each bounded like read_uint's.
  template <typename UInt>
  void read_uints(const char* key, std::vector<UInt>& out) {
    if (const auto array = read_array(key)) {
      out.clear();
      const bool valid = array->for_each_number([&](double n) {
        std::uint64_t u = 0;
        if (!uint_in_range(n, max_of<UInt>(), u)) return false;
        out.push_back(static_cast<UInt>(u));
        return true;
      });
      if (!valid) {
        fail(std::string(key) + " elements must each be " +
             uint_rule(max_of<UInt>()));
      }
    }
  }

  /// Reader for the nested object `key`: same error sink and key policy,
  /// path extended by ".key". nullopt when absent or not an object.
  std::optional<ObjectReader> read_object(const char* key);
  /// The array `key`; nullopt when absent or not an array.
  std::optional<json::Node> read_array(const char* key);

  /// Call last: rejects members no read_* asked about.
  void finish();

  /// Records a schema-level error at this reader's path (first error wins).
  void fail(const std::string& why);

  /// True (and `out` set) when `v` is an integral number in [0, max].
  static bool uint_value(const json::Node& v, std::uint64_t max,
                         std::uint64_t& out) {
    return v.kind() == json::Kind::Number &&
           uint_in_range(v.as_number(), max, out);
  }
  /// True (and `out` set) when `n` is integral and in [0, max <= 2^53].
  static bool uint_in_range(double n, std::uint64_t max, std::uint64_t& out) {
    if (!(n >= 0.0 && n <= static_cast<double>(max))) return false;
    // In this range the conversion truncates, so it round-trips exactly
    // when `n` has no fraction.
    out = static_cast<std::uint64_t>(n);
    return static_cast<double>(out) == n;
  }

  template <typename UInt>
  static constexpr std::uint64_t max_of() {
    return std::min<std::uint64_t>(std::numeric_limits<UInt>::max(),
                                   kMaxExactInt);
  }

 private:
  struct Member {
    std::string_view raw_key;
    json::Node value;
  };

  static std::string uint_rule(std::uint64_t max);
  bool read_uint_max(const char* key, std::uint64_t max, std::uint64_t& out);
  /// The last member named `key`, or nullopt (an error when required).
  std::optional<json::Node> known(const char* key);

  std::string path_;
  std::string& error_;
  Keys keys_;
  bool is_object_ = false;
  std::vector<Member> members_;  ///< in document order, repeats included
  std::vector<std::string_view> known_keys_;
};

// -- shared writers ---------------------------------------------------------
// Each writes one value (the caller writes its key first).

std::string hex_u64(std::uint64_t v);

template <typename UInt>
void write_uints(json::Writer& out, const std::vector<UInt>& values) {
  out.begin_array();
  for (const UInt v : values) out.number(static_cast<double>(v));
  out.end_array();
}

void write_series(json::Writer& out, const Series& series);
void write_objectives(json::Writer& out, const cost::Objectives& objectives);
void write_stats(json::Writer& out, const tabu::SearchStats& stats);

// -- shared decoders (read member `key` of `parent`) ------------------------

void read_series(ObjectReader& parent, const char* key, Series& out);
void read_objectives(ObjectReader& parent, const char* key,
                     cost::Objectives& out);
void read_stats(ObjectReader& parent, const char* key, tabu::SearchStats& out);

}  // namespace pts::service
