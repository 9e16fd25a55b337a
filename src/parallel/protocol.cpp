#include "parallel/protocol.hpp"

namespace pts::parallel {

void pack_slots(pvm::Message& msg, const std::vector<netlist::CellId>& slots) {
  msg.pack_u32_vector(slots);
}

std::vector<netlist::CellId> unpack_slots(pvm::Message& msg) {
  return msg.unpack_u32_vector();
}

void pack_moves(pvm::Message& msg, const std::vector<tabu::Move>& moves) {
  std::vector<std::uint32_t> flat;
  flat.reserve(moves.size() * 2);
  for (const auto& m : moves) {
    flat.push_back(m.a);
    flat.push_back(m.b);
  }
  msg.pack_u32_vector(flat);
}

std::vector<tabu::Move> unpack_moves(pvm::Message& msg) {
  const auto flat = msg.unpack_u32_vector();
  PTS_CHECK(flat.size() % 2 == 0);
  std::vector<tabu::Move> moves(flat.size() / 2);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    moves[i] = tabu::Move{flat[2 * i], flat[2 * i + 1]};
  }
  return moves;
}

pvm::Message ClwReport::encode() const {
  pvm::Message msg(kTagReport);
  msg.pack_u64(local_seq);
  pack_moves(msg, swaps);
  msg.pack_double(cost);
  msg.pack_bool(improved_early);
  return msg;
}

ClwReport ClwReport::decode(pvm::Message& msg) {
  ClwReport r;
  r.local_seq = msg.unpack_u64();
  r.swaps = unpack_moves(msg);
  r.cost = msg.unpack_double();
  r.improved_early = msg.unpack_bool();
  return r;
}

pvm::Message TswReport::encode() const {
  pvm::Message msg(kTagReport);
  msg.pack_u64(global_seq);
  msg.pack_double(best_cost);
  pack_slots(msg, best_slots);
  pack_moves(msg, tabu_entries);
  msg.pack_u64(stat_iterations);
  msg.pack_u64(stat_accepted);
  msg.pack_u64(stat_rejected_tabu);
  msg.pack_u64(stat_aspirated);
  msg.pack_u64(stat_early_accepts);
  return msg;
}

TswReport TswReport::decode(pvm::Message& msg) {
  TswReport r;
  r.global_seq = msg.unpack_u64();
  r.best_cost = msg.unpack_double();
  r.best_slots = unpack_slots(msg);
  r.tabu_entries = unpack_moves(msg);
  r.stat_iterations = msg.unpack_u64();
  r.stat_accepted = msg.unpack_u64();
  r.stat_rejected_tabu = msg.unpack_u64();
  r.stat_aspirated = msg.unpack_u64();
  r.stat_early_accepts = msg.unpack_u64();
  return r;
}

pvm::Message make_init(const std::vector<netlist::CellId>& slots) {
  pvm::Message msg(kTagInit);
  pack_slots(msg, slots);
  return msg;
}

std::vector<netlist::CellId> decode_init(pvm::Message& msg) {
  return unpack_slots(msg);
}

pvm::Message make_force(std::uint64_t seq) {
  pvm::Message msg(kTagForceReport);
  msg.pack_u64(seq);
  return msg;
}

std::uint64_t decode_force(pvm::Message& msg) { return msg.unpack_u64(); }

pvm::Message make_terminate() { return pvm::Message(kTagTerminate); }

pvm::Message Broadcast::encode() const {
  pvm::Message msg(kTagBroadcast);
  msg.pack_u64(global_seq);
  pack_slots(msg, best_slots);
  pack_moves(msg, tabu_entries);
  return msg;
}

Broadcast Broadcast::decode(pvm::Message& msg) {
  Broadcast b;
  b.global_seq = msg.unpack_u64();
  b.best_slots = unpack_slots(msg);
  b.tabu_entries = unpack_moves(msg);
  return b;
}

pvm::Message SearchRequest::encode() const {
  pvm::Message msg(kTagSearch);
  msg.pack_u64(local_seq);
  pack_moves(msg, sync_swaps);
  pack_slots(msg, reset_slots);
  return msg;
}

SearchRequest SearchRequest::decode(pvm::Message& msg) {
  SearchRequest r;
  r.local_seq = msg.unpack_u64();
  r.sync_swaps = unpack_moves(msg);
  r.reset_slots = unpack_slots(msg);
  return r;
}

}  // namespace pts::parallel
