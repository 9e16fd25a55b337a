// Text serialization of netlists (".net" format).
//
// The format is line-oriented and human-editable:
//
//   # comment
//   circuit <name>
//   pi <name>
//   po <name>
//   gate <name> <width> <intrinsic_delay> <load_factor>
//   net <name> <weight> <driver> <sink> [<sink> ...]
//
// Cells must be declared before the nets that reference them. write/parse
// round-trip exactly (same ids, same pin order, bit-identical doubles —
// write_netlist prints shortest-round-trip decimals).
//
// Parsing untrusted bytes goes through the try_* entry points: each line
// is checked for what its NetlistBuilder call would PTS_CHECK-abort on
// (duplicate names, double-driven nets, self-loops, PI sinks, non-finite
// numerics) before the call is made, and the whole-circuit invariants
// (dangling cells, combinational cycles) come back as the builder's
// try_build() error. Failures are an error string naming the offending
// line or cell — a bad .net stream is an error, never process death. The
// non-try wrappers keep the historical abort-on-error contract for trusted
// in-process data.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace pts::netlist {

void write_netlist(const Netlist& netlist, std::ostream& os);
std::string to_net_format(const Netlist& netlist);

/// Outcome of a fallible parse/load. ok() iff `netlist` is engaged; on
/// failure `error` describes the first problem (with its 1-based line
/// number for parse errors).
using ParseResult = BuildResult;

/// Parses the `.net` format without ever aborting: every malformed line,
/// structural violation, or non-finite numeric becomes ParseResult::error.
ParseResult try_parse_netlist(std::istream& is);
ParseResult try_parse_netlist_string(const std::string& text);
ParseResult try_load_netlist_file(const std::string& path);

/// Writes `netlist` to `path`. Returns an empty string on success, an
/// error message (unopenable path, write failure) otherwise.
std::string try_save_netlist_file(const Netlist& netlist, const std::string& path);

/// Abort-on-error wrappers over the try_* parsers (trusted input only;
/// PTS_CHECK-fails with the offending line in the message).
Netlist parse_netlist(std::istream& is);
Netlist parse_netlist_string(const std::string& text);

void save_netlist_file(const Netlist& netlist, const std::string& path);
Netlist load_netlist_file(const std::string& path);

/// Order-sensitive FNV-1a over the full circuit content: name, every cell
/// (name, kind, width, delay/load bits), every net (name, weight bits,
/// driver, sink order). Two netlists hash equal iff their canonical .net
/// serializations match bit for bit — the circuit half of the serving
/// layer's result-cache key.
std::uint64_t content_hash(const Netlist& netlist);

}  // namespace pts::netlist
