#include "service/schema.hpp"

#include <charconv>
#include <cmath>

namespace pts::service {

using json::Value;

namespace {

bool parse_hex_u64(const Value& v, std::uint64_t& out) {
  if (!v.is_string() || v.as_string().empty()) return false;
  const std::string& text = v.as_string();
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, out, 16);
  return res.ec == std::errc{} && res.ptr == end;
}

}  // namespace

ObjectReader::ObjectReader(const Value& value, std::string path,
                           std::string& error, Keys keys)
    : value_(value), path_(std::move(path)), error_(error), keys_(keys) {
  if (!value_.is_object()) fail("expected an object");
}

void ObjectReader::read_string(const char* key, std::string& out) {
  if (const Value* v = known(key)) {
    if (v->is_string()) {
      out = v->as_string();
    } else {
      fail(std::string(key) + " must be a string");
    }
  }
}

void ObjectReader::read_bool(const char* key, bool& out) {
  if (const Value* v = known(key)) {
    if (v->is_bool()) {
      out = v->as_bool();
    } else {
      fail(std::string(key) + " must be a boolean");
    }
  }
}

void ObjectReader::read_double(const char* key, double& out) {
  if (const Value* v = known(key)) {
    if (v->is_number() && std::isfinite(v->as_number())) {
      out = v->as_number();
    } else {
      // Non-finite values cannot come off the wire (the JSON grammar has no
      // NaN/Inf and the number parser rejects overflow), but an in-process
      // Value can carry one; reject it so no document with poisoned
      // arithmetic gets past decoding.
      fail(std::string(key) + " must be a finite number");
    }
  }
}

void ObjectReader::read_opt_double(const char* key, std::optional<double>& out) {
  if (const Value* v = known(key)) {
    if (v->is_null()) {
      out.reset();
    } else if (v->is_number() && std::isfinite(v->as_number())) {
      out = v->as_number();
    } else {
      fail(std::string(key) + " must be a finite number or null");
    }
  }
}

bool ObjectReader::read_uint_max(const char* key, std::uint64_t max,
                                 std::uint64_t& out) {
  if (const Value* v = known(key)) {
    if (uint_value(*v, max, out)) return true;
    fail(std::string(key) + " must be " + uint_rule(max));
  }
  return false;
}

void ObjectReader::read_hex_u64(const char* key, std::uint64_t& out) {
  if (const Value* v = known(key)) {
    if (!parse_hex_u64(*v, out)) {
      fail(std::string(key) + " must be a hex u64 string");
    }
  }
}

void ObjectReader::read_hex_u64s(const char* key, std::span<std::uint64_t> out) {
  if (const Value* arr = read_array(key)) {
    bool valid = arr->items().size() == out.size();
    for (std::size_t i = 0; valid && i < out.size(); ++i) {
      valid = parse_hex_u64(arr->items()[i], out[i]);
    }
    if (!valid) {
      fail(std::string(key) + " must be an array of " +
           std::to_string(out.size()) + " hex u64 strings");
    }
  }
}

void ObjectReader::read_doubles(const char* key, std::vector<double>& out) {
  if (const Value* arr = read_array(key)) {
    out.clear();
    out.reserve(arr->items().size());
    for (const Value& item : arr->items()) {
      if (!item.is_number() || !std::isfinite(item.as_number())) {
        fail(std::string(key) + " must contain only finite numbers");
        return;
      }
      out.push_back(item.as_number());
    }
  }
}

std::optional<ObjectReader> ObjectReader::read_object(const char* key) {
  if (const Value* v = known(key)) {
    if (v->is_object()) return ObjectReader(*v, path_ + "." + key, error_, keys_);
    fail(std::string(key) + " must be an object");
  }
  return std::nullopt;
}

const Value* ObjectReader::read_array(const char* key) {
  if (const Value* v = known(key)) {
    if (v->is_array()) return v;
    fail(std::string(key) + " must be an array");
  }
  return nullptr;
}

void ObjectReader::finish() {
  if (!value_.is_object()) return;
  for (const auto& [key, member] : value_.members()) {
    (void)member;
    if (std::find(known_keys_.begin(), known_keys_.end(), key) ==
        known_keys_.end()) {
      fail("unknown key '" + key + "'");
    }
  }
}

void ObjectReader::fail(const std::string& why) {
  if (!error_.empty()) return;  // first error wins; it has the most context
  error_ = path_ + ": " + why;
}

bool ObjectReader::uint_value(const Value& v, std::uint64_t max,
                              std::uint64_t& out) {
  if (!v.is_number()) return false;
  const double n = v.as_number();
  if (!(n >= 0.0 && n <= static_cast<double>(max))) return false;
  if (std::nearbyint(n) != n) return false;
  out = static_cast<std::uint64_t>(n);
  return true;
}

std::string ObjectReader::uint_rule(std::uint64_t max) {
  return max >= kMaxExactInt ? "a non-negative integer"
                             : "an integer in [0, " + std::to_string(max) + "]";
}

const Value* ObjectReader::known(const char* key) {
  known_keys_.emplace_back(key);
  const Value* v = value_.find(key);
  if (v == nullptr && keys_ == Keys::Required) {
    fail(std::string(key) + " is required");
  }
  return v;
}

// -- shared encoders --------------------------------------------------------

std::string hex_u64(std::uint64_t v) {
  char buf[16];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, 16);
  return std::string(buf, res.ptr);
}

Value doubles_to_json(std::span<const double> values) {
  Value arr = Value::array();
  for (const double v : values) arr.push_back(Value(v));
  return arr;
}

Value series_to_json(const Series& series) {
  Value out = Value::object();
  out.set("name", Value(series.name));
  out.set("x", doubles_to_json(series.x));
  out.set("y", doubles_to_json(series.y));
  return out;
}

Value objectives_to_json(const cost::Objectives& objectives) {
  Value out = Value::object();
  out.set("wirelength", Value(objectives.wirelength));
  out.set("delay", Value(objectives.delay));
  out.set("area", Value(objectives.area));
  return out;
}

Value stats_to_json(const tabu::SearchStats& stats) {
  Value out = Value::object();
  out.set("iterations", Value(static_cast<double>(stats.iterations)));
  out.set("accepted", Value(static_cast<double>(stats.accepted)));
  out.set("rejected_tabu", Value(static_cast<double>(stats.rejected_tabu)));
  out.set("aspirated", Value(static_cast<double>(stats.aspirated)));
  out.set("early_accepts", Value(static_cast<double>(stats.early_accepts)));
  out.set("trials", Value(static_cast<double>(stats.trials)));
  return out;
}

// -- shared decoders --------------------------------------------------------

void read_series(ObjectReader& parent, const char* key, Series& out) {
  if (auto series = parent.read_object(key)) {
    series->read_string("name", out.name);
    series->read_doubles("x", out.x);
    series->read_doubles("y", out.y);
    series->finish();
    if (out.x.size() != out.y.size()) series->fail("x and y lengths differ");
  }
}

void read_objectives(ObjectReader& parent, const char* key,
                     cost::Objectives& out) {
  if (auto objectives = parent.read_object(key)) {
    objectives->read_double("wirelength", out.wirelength);
    objectives->read_double("delay", out.delay);
    objectives->read_double("area", out.area);
    objectives->finish();
  }
}

void read_stats(ObjectReader& parent, const char* key, tabu::SearchStats& out) {
  if (auto stats = parent.read_object(key)) {
    stats->read_uint("iterations", out.iterations);
    stats->read_uint("accepted", out.accepted);
    stats->read_uint("rejected_tabu", out.rejected_tabu);
    stats->read_uint("aspirated", out.aspirated);
    stats->read_uint("early_accepts", out.early_accepts);
    stats->read_uint("trials", out.trials);
    stats->finish();
  }
}

}  // namespace pts::service
