// Strict schema layer over service/json.hpp: the one reader every stored or
// exchanged JSON document goes through — solve specs and results
// (service/codec.hpp) and checkpoints (solver/checkpoint.hpp) — plus the
// encoders and decoders of the records those documents share (Series,
// Objectives, SearchStats, id and value arrays).
//
// One rule set for every document:
//  - unknown keys are rejected (finish());
//  - numbers must be finite; integers must be integral, non-negative, at
//    most 2^53 (doubles are exact only that far) and at most the target
//    type's maximum; u64 values that need all 64 bits travel as hex
//    strings (read_hex_u64);
//  - the first error wins, prefixed with the dotted path of the object it
//    was found in ("spec.tabu: ...", "checkpoint.search.rng: ...").
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

  /// Reads the object `value` found at dotted `path`, recording the first
  /// error of the whole document into `error` (shared with nested readers).
  ObjectReader(const json::Value& value, std::string path, std::string& error,
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
    if (const json::Value* arr = read_array(key)) {
      out.clear();
      out.reserve(arr->items().size());
      for (const json::Value& item : arr->items()) {
        std::uint64_t u = 0;
        if (!uint_value(item, max_of<UInt>(), u)) {
          fail(std::string(key) + " elements must each be " +
               uint_rule(max_of<UInt>()));
          return;
        }
        out.push_back(static_cast<UInt>(u));
      }
    }
  }

  /// Reader for the nested object `key`: same error sink and key policy,
  /// path extended by ".key". nullopt when absent or not an object.
  std::optional<ObjectReader> read_object(const char* key);
  const json::Value* read_array(const char* key);

  /// Call last: rejects members no read_* asked about.
  void finish();

  /// Records a schema-level error at this reader's path (first error wins).
  void fail(const std::string& why);

  /// True (and `out` set) when `v` is an integral number in [0, max].
  static bool uint_value(const json::Value& v, std::uint64_t max,
                         std::uint64_t& out);

  template <typename UInt>
  static constexpr std::uint64_t max_of() {
    return std::min<std::uint64_t>(std::numeric_limits<UInt>::max(),
                                   kMaxExactInt);
  }

 private:
  static std::string uint_rule(std::uint64_t max);
  bool read_uint_max(const char* key, std::uint64_t max, std::uint64_t& out);
  const json::Value* known(const char* key);

  const json::Value& value_;
  std::string path_;
  std::string& error_;
  Keys keys_;
  std::vector<std::string> known_keys_;
};

// -- shared encoders --------------------------------------------------------

std::string hex_u64(std::uint64_t v);
json::Value doubles_to_json(std::span<const double> values);

template <typename UInt>
json::Value uints_to_json(const std::vector<UInt>& values) {
  json::Value arr = json::Value::array();
  for (const UInt v : values) arr.push_back(json::Value(static_cast<double>(v)));
  return arr;
}

json::Value series_to_json(const Series& series);
json::Value objectives_to_json(const cost::Objectives& objectives);
json::Value stats_to_json(const tabu::SearchStats& stats);

// -- shared decoders (read member `key` of `parent`) ------------------------

void read_series(ObjectReader& parent, const char* key, Series& out);
void read_objectives(ObjectReader& parent, const char* key,
                     cost::Objectives& out);
void read_stats(ObjectReader& parent, const char* key, tabu::SearchStats& out);

}  // namespace pts::service
