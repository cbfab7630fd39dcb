#include "core/barrier_protocol.hpp"

namespace grid::core {

std::string to_string(SubjobState s) {
  switch (s) {
    case SubjobState::kUnsubmitted:
      return "UNSUBMITTED";
    case SubjobState::kSubmitting:
      return "SUBMITTING";
    case SubjobState::kPending:
      return "PENDING";
    case SubjobState::kActive:
      return "ACTIVE";
    case SubjobState::kCheckedIn:
      return "CHECKED_IN";
    case SubjobState::kReleased:
      return "RELEASED";
    case SubjobState::kDone:
      return "DONE";
    case SubjobState::kFailed:
      return "FAILED";
    case SubjobState::kDeleted:
      return "DELETED";
  }
  return "?";
}

std::string to_string(RequestState s) {
  switch (s) {
    case RequestState::kEditing:
      return "EDITING";
    case RequestState::kCommitted:
      return "COMMITTED";
    case RequestState::kReleased:
      return "RELEASED";
    case RequestState::kDone:
      return "DONE";
    case RequestState::kAborted:
      return "ABORTED";
  }
  return "?";
}

void RuntimeConfig::encode(util::Writer& w) const {
  std::size_t need = 17;
  for (const SubjobLayout& s : subjobs) need += 29 + s.contact.size();
  w.reserve(need);
  w.u64(request);
  w.i32(total_processes);
  w.varint(subjobs.size());
  for (const SubjobLayout& s : subjobs) {
    w.u64(s.subjob);
    w.i32(s.index);
    w.i32(s.size);
    w.i32(s.rank_base);
    w.u32(s.leader);
    w.str(s.contact);
  }
}

RuntimeConfig RuntimeConfig::decode(util::Reader& r) {
  RuntimeConfig c;
  c.request = r.u64();
  c.total_processes = r.i32();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    SubjobLayout s;
    s.subjob = r.u64();
    s.index = r.i32();
    s.size = r.i32();
    s.rank_base = r.i32();
    s.leader = r.u32();
    const std::string_view contact = r.str_view();
    s.contact.assign(contact.begin(), contact.end());
    c.subjobs.push_back(std::move(s));
  }
  return c;
}

void ReleaseInfo::encode(util::Writer& w) const {
  encode(w, config, subjob_index, local_rank, global_rank, subjob_members);
}

void ReleaseInfo::encode(util::Writer& w, const RuntimeConfig& config,
                         std::int32_t subjob_index, std::int32_t local_rank,
                         std::int32_t global_rank,
                         const std::vector<net::NodeId>& subjob_members) {
  config.encode(w);
  w.reserve(17 + 4 * subjob_members.size());
  w.i32(subjob_index);
  w.i32(local_rank);
  w.i32(global_rank);
  w.varint(subjob_members.size());
  for (net::NodeId m : subjob_members) w.u32(m);
}

ReleaseInfo ReleaseInfo::decode(util::Reader& r) {
  ReleaseInfo i;
  i.config = RuntimeConfig::decode(r);
  i.subjob_index = r.i32();
  i.local_rank = r.i32();
  i.global_rank = r.i32();
  const std::uint64_t n = r.varint();
  for (std::uint64_t k = 0; k < n && r.ok(); ++k) {
    i.subjob_members.push_back(r.u32());
  }
  return i;
}

ReleaseView::ReleaseView(util::Reader& r) : encoding_(r) {
  // The field order of ReleaseInfo::decode, skipping what is not kept.
  r.u64();
  r.i32();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    r.u64();
    r.i32();
    r.i32();
    r.i32();
    r.u32();
    r.str_view();
  }
  r.i32();
  r.i32();
  global_rank_ = r.i32();
  const std::uint64_t members = r.varint();
  for (std::uint64_t k = 0; k < members && r.ok(); ++k) r.u32();
}

ReleaseInfo ReleaseView::info() const {
  util::Reader r = encoding_;
  return ReleaseInfo::decode(r);
}

void CheckinMessage::encode(util::Writer& w) const {
  w.reserve(34 + message.size());
  w.u64(request);
  w.u64(subjob);
  w.u64(gram_job);
  w.i32(rank);
  w.boolean(ok);
  w.str(message);
}

CheckinMessage CheckinMessage::decode(util::Reader& r) {
  CheckinMessage m;
  m.request = r.u64();
  m.subjob = r.u64();
  m.gram_job = r.u64();
  m.rank = r.i32();
  m.ok = r.boolean();
  const std::string_view msg = r.str_view();
  m.message.assign(msg.begin(), msg.end());
  return m;
}

void AbortMessage::encode(util::Writer& w) const {
  w.reserve(13 + reason.size());
  w.u64(request);
  w.str(reason);
}

AbortMessage AbortMessage::decode(util::Reader& r) {
  AbortMessage m;
  m.request = r.u64();
  const std::string_view reason = r.str_view();
  m.reason.assign(reason.begin(), reason.end());
  return m;
}

}  // namespace grid::core
