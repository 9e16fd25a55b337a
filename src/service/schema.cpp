#include "service/schema.hpp"

#include <charconv>

namespace pts::service {

using json::Kind;
using json::Node;

namespace {

bool parse_hex_u64(const Node& v, std::uint64_t& out) {
  if (v.kind() != Kind::String) return false;
  const std::string text = v.as_string();
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, out, 16);
  return res.ec == std::errc{} && res.ptr == end;
}

}  // namespace

ObjectReader::ObjectReader(Node node, std::string path, std::string& error,
                           Keys keys)
    : path_(std::move(path)), error_(error), keys_(keys) {
  is_object_ = node.kind() == Kind::Object;
  if (!is_object_) {
    fail("expected an object");
    return;
  }
  node.for_each_member([&](std::string_view raw_key, const Node& value) {
    members_.push_back({raw_key, value});
  });
}

void ObjectReader::read_string(const char* key, std::string& out) {
  if (const auto v = known(key)) {
    if (v->kind() == Kind::String) {
      out = v->as_string();
    } else {
      fail(std::string(key) + " must be a string");
    }
  }
}

void ObjectReader::read_bool(const char* key, bool& out) {
  if (const auto v = known(key)) {
    if (v->kind() == Kind::Bool) {
      out = v->as_bool();
    } else {
      fail(std::string(key) + " must be a boolean");
    }
  }
}

void ObjectReader::read_double(const char* key, double& out) {
  if (const auto v = known(key)) {
    // Validated numbers are always finite (the scan rejects overflow), so
    // the kind check is the whole rule.
    if (v->kind() == Kind::Number) {
      out = v->as_number();
    } else {
      fail(std::string(key) + " must be a finite number");
    }
  }
}

void ObjectReader::read_opt_double(const char* key, std::optional<double>& out) {
  if (const auto v = known(key)) {
    if (v->kind() == Kind::Null) {
      out.reset();
    } else if (v->kind() == Kind::Number) {
      out = v->as_number();
    } else {
      fail(std::string(key) + " must be a finite number or null");
    }
  }
}

bool ObjectReader::read_uint_max(const char* key, std::uint64_t max,
                                 std::uint64_t& out) {
  if (const auto v = known(key)) {
    if (uint_value(*v, max, out)) return true;
    fail(std::string(key) + " must be " + uint_rule(max));
  }
  return false;
}

void ObjectReader::read_hex_u64(const char* key, std::uint64_t& out) {
  if (const auto v = known(key)) {
    if (!parse_hex_u64(*v, out)) {
      fail(std::string(key) + " must be a hex u64 string");
    }
  }
}

void ObjectReader::read_hex_u64s(const char* key, std::span<std::uint64_t> out) {
  if (const auto array = read_array(key)) {
    std::size_t count = 0;
    bool valid = true;
    array->for_each_item([&](const Node& item) {
      valid = count < out.size() && parse_hex_u64(item, out[count]);
      ++count;
      return valid;
    });
    if (!valid || count != out.size()) {
      fail(std::string(key) + " must be an array of " +
           std::to_string(out.size()) + " hex u64 strings");
    }
  }
}

void ObjectReader::read_doubles(const char* key, std::vector<double>& out) {
  if (const auto array = read_array(key)) {
    out.clear();
    const bool valid = array->for_each_number([&](double n) {
      out.push_back(n);
      return true;
    });
    if (!valid) fail(std::string(key) + " must contain only finite numbers");
  }
}

std::optional<ObjectReader> ObjectReader::read_object(const char* key) {
  if (const auto v = known(key)) {
    if (v->kind() == Kind::Object) {
      return ObjectReader(*v, path_ + "." + key, error_, keys_);
    }
    fail(std::string(key) + " must be an object");
  }
  return std::nullopt;
}

std::optional<Node> ObjectReader::read_array(const char* key) {
  if (const auto v = known(key)) {
    if (v->kind() == Kind::Array) return v;
    fail(std::string(key) + " must be an array");
  }
  return std::nullopt;
}

void ObjectReader::finish() {
  if (!is_object_) return;
  for (const Member& member : members_) {
    const bool asked = std::any_of(
        known_keys_.begin(), known_keys_.end(),
        [&](std::string_view k) { return json::key_equals(member.raw_key, k); });
    if (!asked) {
      fail("unknown key '" + json::decode_key(member.raw_key) + "'");
      return;
    }
  }
}

void ObjectReader::fail(const std::string& why) {
  if (!error_.empty()) return;  // first error wins; it has the most context
  error_ = path_ + ": " + why;
}

std::string ObjectReader::uint_rule(std::uint64_t max) {
  return max >= kMaxExactInt ? "a non-negative integer"
                             : "an integer in [0, " + std::to_string(max) + "]";
}

std::optional<Node> ObjectReader::known(const char* key) {
  known_keys_.emplace_back(key);
  for (auto it = members_.rbegin(); it != members_.rend(); ++it) {
    if (json::key_equals(it->raw_key, key)) return it->value;
  }
  if (keys_ == Keys::Required) fail(std::string(key) + " is required");
  return std::nullopt;
}

// -- shared writers ---------------------------------------------------------

std::string hex_u64(std::uint64_t v) {
  char buf[16];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, 16);
  return std::string(buf, res.ptr);
}

void write_series(json::Writer& out, const Series& series) {
  out.begin_object();
  out.key("name").string(series.name);
  out.key("x").numbers(series.x);
  out.key("y").numbers(series.y);
  out.end_object();
}

void write_objectives(json::Writer& out, const cost::Objectives& objectives) {
  out.begin_object();
  out.key("wirelength").number(objectives.wirelength);
  out.key("delay").number(objectives.delay);
  out.key("area").number(objectives.area);
  out.end_object();
}

void write_stats(json::Writer& out, const tabu::SearchStats& stats) {
  out.begin_object();
  out.key("iterations").number(static_cast<double>(stats.iterations));
  out.key("accepted").number(static_cast<double>(stats.accepted));
  out.key("rejected_tabu").number(static_cast<double>(stats.rejected_tabu));
  out.key("aspirated").number(static_cast<double>(stats.aspirated));
  out.key("early_accepts").number(static_cast<double>(stats.early_accepts));
  out.key("trials").number(static_cast<double>(stats.trials));
  out.end_object();
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
