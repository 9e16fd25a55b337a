// Wire protocol between master, TSWs and CLWs.
//
// Message kinds (tags) mirror the paper's Figures 2–4:
//
//   master -> TSW : Init        (params digest, initial slots, range, index)
//                   Broadcast   (global best slots + winner tabu list)
//                   ForceReport (straggler cutoff, carries global iter seq)
//                   Terminate
//   TSW -> master : Report      (best cost + slots + tabu list, global seq)
//   TSW -> CLW    : Init        (initial slots, range)
//                   Search      (delta swaps to sync + local iter seq)
//                   ForceReport (local iter seq)
//                   Terminate
//   CLW -> TSW    : Report      (compound swaps + cost, local iter seq)
//
// Every Report/ForceReport carries the iteration sequence number so that a
// worker that already reported can ignore a stale force request (the
// natural race when a straggler finishes just as the parent cuts it off).
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "pvm/message.hpp"
#include "tabu/move.hpp"

namespace pts::parallel {

enum Tag : int {
  kTagInit = 1,
  kTagSearch = 2,
  kTagReport = 3,
  kTagForceReport = 4,
  kTagBroadcast = 5,
  kTagTerminate = 6,
};

// -- shared field codecs ----------------------------------------------------

void pack_slots(pvm::Message& msg, const std::vector<netlist::CellId>& slots);
std::vector<netlist::CellId> unpack_slots(pvm::Message& msg);

void pack_moves(pvm::Message& msg, const std::vector<tabu::Move>& moves);
std::vector<tabu::Move> unpack_moves(pvm::Message& msg);

// -- typed message bodies ---------------------------------------------------

/// CLW -> TSW: result of one candidate-list investigation.
struct ClwReport {
  std::uint64_t local_seq = 0;
  std::vector<tabu::Move> swaps;  ///< best (possibly cut) compound prefix
  double cost = 0.0;              ///< cost after applying `swaps`
  bool improved_early = false;

  pvm::Message encode() const;
  static ClwReport decode(pvm::Message& msg);
};

/// TSW -> master: result of one global iteration's local search.
struct TswReport {
  std::uint64_t global_seq = 0;
  double best_cost = 0.0;
  std::vector<netlist::CellId> best_slots;
  std::vector<tabu::Move> tabu_entries;
  /// Cumulative search statistics (master merges the final report's).
  std::uint64_t stat_iterations = 0;
  std::uint64_t stat_accepted = 0;
  std::uint64_t stat_rejected_tabu = 0;
  std::uint64_t stat_aspirated = 0;
  std::uint64_t stat_early_accepts = 0;

  pvm::Message encode() const;
  static TswReport decode(pvm::Message& msg);
};

/// Parent -> child: initial solution.
pvm::Message make_init(const std::vector<netlist::CellId>& slots);
std::vector<netlist::CellId> decode_init(pvm::Message& msg);

/// Parent -> child: report-now request for iteration `seq`.
pvm::Message make_force(std::uint64_t seq);
std::uint64_t decode_force(pvm::Message& msg);

pvm::Message make_terminate();

/// master -> TSW: new global best for the next global iteration.
struct Broadcast {
  std::uint64_t global_seq = 0;
  std::vector<netlist::CellId> best_slots;
  std::vector<tabu::Move> tabu_entries;

  pvm::Message encode() const;
  static Broadcast decode(pvm::Message& msg);
};

/// TSW -> CLW: sync deltas and start the next investigation.
struct SearchRequest {
  std::uint64_t local_seq = 0;
  /// Swaps to apply to the CLW's copy to reach the TSW's current solution;
  /// empty when the previous iteration accepted nothing.
  std::vector<tabu::Move> sync_swaps;
  /// Full solution reset (used at global iteration boundaries); when
  /// non-empty it replaces the CLW state and sync_swaps must be empty.
  std::vector<netlist::CellId> reset_slots;

  pvm::Message encode() const;
  static SearchRequest decode(pvm::Message& msg);
};

}  // namespace pts::parallel
