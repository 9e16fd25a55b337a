#include "netlist/io.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "support/check.hpp"

namespace pts::netlist {
namespace {

// Shortest decimal that round-trips to the same double, so
// write -> parse -> write is a fixed point bit for bit.
void print_double(std::ostream& os, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, static_cast<std::streamsize>(res.ptr - buf));
}

bool parse_double_token(const std::string& tok, double& out) {
  const char* begin = tok.data();
  const char* end = begin + tok.size();
  const auto res = std::from_chars(begin, end, out);
  return res.ec == std::errc{} && res.ptr == end && std::isfinite(out);
}

bool parse_int_token(const std::string& tok, int& out) {
  const char* begin = tok.data();
  const char* end = begin + tok.size();
  const auto res = std::from_chars(begin, end, out);
  return res.ec == std::errc{} && res.ptr == end;
}

ParseResult error_result(std::string message) {
  ParseResult r;
  r.error = std::move(message);
  return r;
}

}  // namespace

void write_netlist(const Netlist& netlist, std::ostream& os) {
  os << "# pts netlist v1\n";
  os << "circuit " << netlist.name() << "\n";
  for (const auto& cell : netlist.cells()) {
    switch (cell.kind) {
      case CellKind::PrimaryInput:
        os << "pi " << cell.name << "\n";
        break;
      case CellKind::PrimaryOutput:
        os << "po " << cell.name << "\n";
        break;
      case CellKind::Gate:
        os << "gate " << cell.name << ' ' << cell.width << ' ';
        print_double(os, cell.intrinsic_delay);
        os << ' ';
        print_double(os, cell.load_factor);
        os << "\n";
        break;
    }
  }
  for (NetId nid = 0; nid < netlist.num_nets(); ++nid) {
    const Net& net = netlist.net(nid);
    os << "net " << net.name << ' ';
    print_double(os, net.weight);
    for (CellId pin : netlist.topology().pins(nid)) {
      os << ' ' << netlist.cell(pin).name;
    }
    os << "\n";
  }
}

std::string to_net_format(const Netlist& netlist) {
  std::ostringstream os;
  write_netlist(netlist, os);
  return os.str();
}

ParseResult try_parse_netlist(std::istream& is) {
  // The builder is made at the first cell, once the circuit line (which
  // must come first) has named it. Each line is checked for whatever the
  // builder call it makes would abort on; whole-circuit checks are the
  // builder's own, reported by try_build().
  std::string circuit_name = "unnamed";
  bool named = false;
  std::optional<NetlistBuilder> builder;
  // Cells and nets share one namespace; a net maps to kNoCell.
  std::unordered_map<std::string, CellId> names;
  std::string line;
  std::size_t line_no = 0;

  auto fail = [&](const std::string& why) {
    return error_result("netlist parse error at line " + std::to_string(line_no) +
                        ": " + why);
  };
  // Claims `name` and returns its slot, or nullptr if the name is taken.
  auto claim = [&](const std::string& name) -> CellId* {
    const auto [it, fresh] = names.emplace(name, kNoCell);
    return fresh ? &it->second : nullptr;
  };
  auto cell_named = [&](const std::string& name) {
    const auto it = names.find(name);
    return it == names.end() ? kNoCell : it->second;
  };
  auto get_builder = [&]() -> NetlistBuilder& {
    if (!builder) builder.emplace(circuit_name);
    return *builder;
  };

  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword) || keyword[0] == '#') continue;

    if (keyword == "circuit") {
      std::string name;
      if (!(ls >> name)) return fail("circuit needs a name");
      if (named) return fail("duplicate circuit line");
      if (builder) return fail("circuit line must precede cells");
      circuit_name = std::move(name);
      named = true;
    } else if (keyword == "pi" || keyword == "po") {
      std::string name;
      if (!(ls >> name)) return fail(keyword + " needs a name");
      CellId* slot = claim(name);
      if (slot == nullptr) return fail("duplicate name '" + name + "'");
      *slot = keyword == "pi" ? get_builder().add_primary_input(name)
                              : get_builder().add_primary_output(name);
    } else if (keyword == "gate") {
      std::string name, width_tok, delay_tok, load_tok;
      if (!(ls >> name >> width_tok >> delay_tok >> load_tok))
        return fail("malformed gate line");
      int width = 1;
      double delay = 0.0, load = 0.0;
      if (!parse_int_token(width_tok, width) || width < 1)
        return fail("gate '" + name + "' width must be a positive integer, got '" +
                    width_tok + "'");
      if (!parse_double_token(delay_tok, delay) || delay < 0.0)
        return fail("gate '" + name +
                    "' delay must be a finite non-negative number, got '" +
                    delay_tok + "'");
      if (!parse_double_token(load_tok, load) || load < 0.0)
        return fail("gate '" + name +
                    "' load must be a finite non-negative number, got '" +
                    load_tok + "'");
      CellId* slot = claim(name);
      if (slot == nullptr) return fail("duplicate name '" + name + "'");
      *slot = get_builder().add_gate(name, width, delay, load);
    } else if (keyword == "net") {
      std::string name, weight_tok, driver;
      if (!(ls >> name >> weight_tok >> driver)) return fail("malformed net line");
      double weight = 1.0;
      if (!parse_double_token(weight_tok, weight) || !(weight > 0.0))
        return fail("net '" + name +
                    "' weight must be a finite positive number, got '" +
                    weight_tok + "'");
      if (claim(name) == nullptr) return fail("duplicate name '" + name + "'");
      const CellId d = cell_named(driver);
      if (d == kNoCell) return fail("unknown cell '" + driver + "'");
      if (builder->cell(d).kind == CellKind::PrimaryOutput)
        return fail("PO '" + driver + "' cannot drive a net");
      if (builder->cell(d).out_net != kNoNet)
        return fail("cell '" + driver + "' already drives a net");
      const NetId net = builder->add_net(name, d, weight);
      std::size_t sinks = 0;
      std::string sink;
      while (ls >> sink) {
        const CellId s = cell_named(sink);
        if (s == kNoCell) return fail("unknown cell '" + sink + "'");
        if (s == d) return fail("net '" + name + "' is a self-loop on '" + sink + "'");
        if (builder->cell(s).kind == CellKind::PrimaryInput)
          return fail("PI '" + sink + "' cannot be a net sink");
        builder->connect_input(net, s);
        ++sinks;
      }
      if (sinks == 0) return fail("net '" + name + "' has no sinks");
    } else {
      return fail("unknown keyword '" + keyword + "'");
    }
  }

  BuildResult built = std::move(get_builder()).try_build();
  if (!built.ok()) return error_result("netlist error: " + built.error);
  return built;
}

ParseResult try_parse_netlist_string(const std::string& text) {
  std::istringstream is(text);
  return try_parse_netlist(is);
}

ParseResult try_load_netlist_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.good())
    return error_result("cannot open netlist file for reading: " + path);
  return try_parse_netlist(is);
}

std::string try_save_netlist_file(const Netlist& netlist, const std::string& path) {
  std::ofstream os(path);
  if (!os.good()) return "cannot open netlist file for writing: " + path;
  write_netlist(netlist, os);
  os.flush();
  if (!os.good()) return "failed writing netlist file: " + path;
  return {};
}

Netlist parse_netlist(std::istream& is) {
  ParseResult r = try_parse_netlist(is);
  PTS_CHECK_MSG(r.ok(), r.error.c_str());
  return std::move(*r.netlist);
}

Netlist parse_netlist_string(const std::string& text) {
  std::istringstream is(text);
  return parse_netlist(is);
}

void save_netlist_file(const Netlist& netlist, const std::string& path) {
  const std::string err = try_save_netlist_file(netlist, path);
  PTS_CHECK_MSG(err.empty(), err.c_str());
}

Netlist load_netlist_file(const std::string& path) {
  ParseResult r = try_load_netlist_file(path);
  PTS_CHECK_MSG(r.ok(), r.error.c_str());
  return std::move(*r.netlist);
}

std::uint64_t content_hash(const Netlist& netlist) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64-bit offset basis
  auto mix_bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  auto mix_u64 = [&](std::uint64_t v) { mix_bytes(&v, sizeof(v)); };
  auto mix_f64 = [&](double v) { mix_u64(std::bit_cast<std::uint64_t>(v)); };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    mix_bytes(s.data(), s.size());
  };

  mix_str(netlist.name());
  mix_u64(netlist.num_cells());
  mix_u64(netlist.num_nets());
  for (const auto& cell : netlist.cells()) {
    mix_str(cell.name);
    mix_u64(static_cast<std::uint64_t>(cell.kind));
    mix_u64(static_cast<std::uint64_t>(cell.width));
    mix_f64(cell.intrinsic_delay);
    mix_f64(cell.load_factor);
  }
  for (NetId nid = 0; nid < netlist.num_nets(); ++nid) {
    const Net& net = netlist.net(nid);
    const auto sinks = netlist.topology().sinks(nid);
    mix_str(net.name);
    mix_f64(net.weight);
    mix_u64(net.driver);
    mix_u64(sinks.size());
    for (CellId sink : sinks) mix_u64(sink);
  }
  return h;
}

}  // namespace pts::netlist
