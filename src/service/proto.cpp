#include "service/proto.hpp"

namespace pts::service {

const char* tag_name(int tag) {
  switch (tag) {
    case kHello: return "hello";
    case kWelcome: return "welcome";
    case kSubmit: return "submit";
    case kSubmitOk: return "submit-ok";
    case kSubmitErr: return "submit-err";
    case kCancel: return "cancel";
    case kCancelOk: return "cancel-ok";
    case kProgress: return "progress";
    case kDone: return "done";
    case kShutdown: return "shutdown";
    case kShutdownOk: return "shutdown-ok";
    case kError: return "error";
  }
  return "unknown";
}

namespace {

using pvm::Field;
using pvm::Message;

/// Schema-checked reads over an untrusted Message: every getter verifies
/// the next field's type via peek_field before unpacking, so no unpack_*
/// can PTS_CHECK-abort. One validate_layout up front covers in-bounds-ness.
class SafeReader {
 public:
  SafeReader(Message& msg, int expected_tag) : msg_(msg) {
    ok_ = msg.tag() == expected_tag && msg.validate_layout();
    msg_.rewind();
  }

  void u32(std::uint32_t& out) {
    if (take(Field::U32)) out = msg_.unpack_u32();
  }
  void u64(std::uint64_t& out) {
    if (take(Field::U64)) out = msg_.unpack_u64();
  }
  void f64(double& out) {
    if (take(Field::F64)) out = msg_.unpack_double();
  }
  void boolean(bool& out) {
    if (take(Field::Bool)) out = msg_.unpack_bool();
  }
  void str(std::string& out) {
    if (take(Field::Str)) out = msg_.unpack_string();
  }

  void str_list(std::vector<std::string>& out) {
    std::uint32_t count = 0;
    u32(count);
    if (!ok_) return;
    // The count is attacker-controlled; the strings must actually be
    // present, so grow per-element instead of trusting a reserve.
    out.clear();
    for (std::uint32_t i = 0; i < count && ok_; ++i) {
      std::string s;
      str(s);
      if (ok_) out.push_back(std::move(s));
    }
  }

  bool finish() { return ok_ && msg_.fully_consumed(); }

 private:
  bool take(Field expected) {
    if (!ok_ || msg_.peek_field() != expected) {
      ok_ = false;
      return false;
    }
    return true;
  }

  Message& msg_;
  bool ok_ = false;
};

void pack_str_list(Message& msg, const std::vector<std::string>& list) {
  msg.pack_u32(static_cast<std::uint32_t>(list.size()));
  for (const auto& item : list) msg.pack_string(item);
}

}  // namespace

// -- encoders ---------------------------------------------------------------

pvm::Message encode(const HelloMsg& msg) {
  Message out(kHello);
  out.pack_u32(msg.version);
  return out;
}

pvm::Message encode(const WelcomeMsg& msg) {
  Message out(kWelcome);
  out.pack_u32(msg.version);
  out.pack_string(msg.server);
  pack_str_list(out, msg.engines);
  pack_str_list(out, msg.circuits);
  return out;
}

pvm::Message encode(const SubmitMsg& msg) {
  Message out(kSubmit);
  out.pack_string(msg.spec_json);
  out.pack_bool(msg.stream);
  out.pack_u64(msg.progress_stride);
  out.pack_u64(msg.request_id);
  return out;
}

pvm::Message encode(const SubmitOkMsg& msg) {
  Message out(kSubmitOk);
  out.pack_u64(msg.session);
  out.pack_bool(msg.queued);
  out.pack_bool(msg.cached);
  return out;
}

pvm::Message encode(const SubmitErrMsg& msg) {
  Message out(kSubmitErr);
  out.pack_string(msg.error);
  return out;
}

pvm::Message encode(const CancelMsg& msg) {
  Message out(kCancel);
  out.pack_u64(msg.session);
  return out;
}

pvm::Message encode(const CancelOkMsg& msg) {
  Message out(kCancelOk);
  out.pack_u64(msg.session);
  out.pack_bool(msg.was_active);
  return out;
}

pvm::Message encode(const ProgressMsg& msg) {
  Message out(kProgress);
  out.pack_u64(msg.session);
  out.pack_bool(msg.improvement);
  out.pack_u64(msg.iteration);
  out.pack_double(msg.seconds);
  out.pack_double(msg.current_cost);
  out.pack_double(msg.best_cost);
  return out;
}

pvm::Message encode(const DoneMsg& msg) {
  return encode_done(msg.session, msg.result_json);
}

pvm::Message encode_done(std::uint64_t session, std::string_view result_json) {
  Message out(kDone);
  out.pack_u64(session);
  out.pack_string(result_json);
  return out;
}

pvm::Message encode(const ErrorMsg& msg) {
  Message out(kError);
  out.pack_string(msg.message);
  return out;
}

pvm::Message encode_shutdown() {
  Message out(kShutdown);
  out.pack_bool(true);  // frames must carry at least one field
  return out;
}

pvm::Message encode_shutdown_ok() {
  Message out(kShutdownOk);
  out.pack_bool(true);
  return out;
}

// -- decoders ---------------------------------------------------------------

bool decode(pvm::Message& msg, HelloMsg& out) {
  SafeReader reader(msg, kHello);
  reader.u32(out.version);
  return reader.finish();
}

bool decode(pvm::Message& msg, WelcomeMsg& out) {
  SafeReader reader(msg, kWelcome);
  reader.u32(out.version);
  reader.str(out.server);
  reader.str_list(out.engines);
  reader.str_list(out.circuits);
  return reader.finish();
}

bool decode(pvm::Message& msg, SubmitMsg& out) {
  SafeReader reader(msg, kSubmit);
  reader.str(out.spec_json);
  reader.boolean(out.stream);
  reader.u64(out.progress_stride);
  reader.u64(out.request_id);
  return reader.finish();
}

bool decode(pvm::Message& msg, SubmitOkMsg& out) {
  SafeReader reader(msg, kSubmitOk);
  reader.u64(out.session);
  reader.boolean(out.queued);
  reader.boolean(out.cached);
  return reader.finish();
}

bool decode(pvm::Message& msg, SubmitErrMsg& out) {
  SafeReader reader(msg, kSubmitErr);
  reader.str(out.error);
  return reader.finish();
}

bool decode(pvm::Message& msg, CancelMsg& out) {
  SafeReader reader(msg, kCancel);
  reader.u64(out.session);
  return reader.finish();
}

bool decode(pvm::Message& msg, CancelOkMsg& out) {
  SafeReader reader(msg, kCancelOk);
  reader.u64(out.session);
  reader.boolean(out.was_active);
  return reader.finish();
}

bool decode(pvm::Message& msg, ProgressMsg& out) {
  SafeReader reader(msg, kProgress);
  reader.u64(out.session);
  reader.boolean(out.improvement);
  reader.u64(out.iteration);
  reader.f64(out.seconds);
  reader.f64(out.current_cost);
  reader.f64(out.best_cost);
  return reader.finish();
}

bool decode(pvm::Message& msg, DoneMsg& out) {
  SafeReader reader(msg, kDone);
  reader.u64(out.session);
  reader.str(out.result_json);
  return reader.finish();
}

bool decode(pvm::Message& msg, ErrorMsg& out) {
  SafeReader reader(msg, kError);
  reader.str(out.message);
  return reader.finish();
}

bool decode_shutdown(pvm::Message& msg) {
  SafeReader reader(msg, kShutdown);
  bool marker = false;
  reader.boolean(marker);
  return reader.finish();
}

bool decode_shutdown_ok(pvm::Message& msg) {
  SafeReader reader(msg, kShutdownOk);
  bool marker = false;
  reader.boolean(marker);
  return reader.finish();
}

}  // namespace pts::service
