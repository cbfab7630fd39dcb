#include "gram/protocol.hpp"

namespace grid::gram {

void JobRequestArgs::encode(util::Writer& w) const {
  w.reserve(22 + rsl.size());
  w.u64(session_token);
  w.str(rsl);
  w.u32(callback_contact);
}

JobRequestArgs JobRequestArgs::decode(util::Reader& r) {
  JobRequestArgs a;
  a.session_token = r.u64();
  const std::string_view rsl = r.str_view();
  a.rsl.assign(rsl.begin(), rsl.end());
  a.callback_contact = r.u32();
  return a;
}

void ReserveArgs::encode(util::Writer& w) const {
  w.reserve(28);
  w.u64(session_token);
  w.i64(start);
  w.i64(end);
  w.i32(count);
}

ReserveArgs ReserveArgs::decode(util::Reader& r) {
  ReserveArgs a;
  a.session_token = r.u64();
  a.start = r.i64();
  a.end = r.i64();
  a.count = r.i32();
  return a;
}

void encode_state_change(util::Writer& w, const JobStateChange& change) {
  w.reserve(23 + change.message.size());
  w.u64(change.job);
  w.u8(static_cast<std::uint8_t>(change.state));
  w.u8(static_cast<std::uint8_t>(change.error));
  w.str(change.message);
  w.i64(change.at);
}

JobStateChange decode_state_change(util::Reader& r) {
  JobStateChange c;
  c.job = r.u64();
  c.state = static_cast<JobState>(r.u8());
  c.error = static_cast<util::ErrorCode>(r.u8());
  const std::string_view msg = r.str_view();
  c.message.assign(msg.begin(), msg.end());
  c.at = r.i64();
  return c;
}

}  // namespace grid::gram
