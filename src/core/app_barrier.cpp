#include "core/app_barrier.hpp"

#include <charconv>
#include <limits>

namespace grid::core {
namespace {

std::uint64_t parse_u64(const std::string& s) {
  std::uint64_t v = 0;
  const char* first = s.data();
  const char* last = first + s.size();
  auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) return 0;
  return v;
}

}  // namespace

BarrierClient::BarrierClient(gram::ProcessApi& api)
    : api_(&api), endpoint_(api.network(), {}) {
  // A contact that does not fit a node id names no node: truncating it
  // would alias another one, so the client stays unconfigured.
  const std::uint64_t contact = parse_u64(api.getenv(env::kContact));
  if (contact <= std::numeric_limits<net::NodeId>::max()) {
    contact_ = static_cast<net::NodeId>(contact);
  }
  request_ = parse_u64(api.getenv(env::kRequest));
  subjob_ = parse_u64(api.getenv(env::kSubjob));
  endpoint_.register_notify(
      kNotifyRelease, [this](net::NodeId, util::Reader& payload) {
        const RequestId request = payload.u64();
        const ReleaseView release(payload);
        if (!payload.ok() || request != request_) return;
        if (released_at_ >= 0) return;  // duplicate release
        released_at_ = endpoint_.engine().now();
        settled_ = true;
        endpoint_.engine().cancel(resend_event_);
        if (on_release_) {
          auto cb = std::move(on_release_);
          on_abort_ = nullptr;
          cb(release);
        }
      });
  endpoint_.register_notify(
      kNotifyAbort, [this](net::NodeId, util::Reader& payload) {
        AbortMessage msg = AbortMessage::decode(payload);
        if (!payload.ok() || msg.request != request_) return;
        settled_ = true;
        endpoint_.engine().cancel(resend_event_);
        if (on_abort_) {
          auto cb = std::move(on_abort_);
          on_release_ = nullptr;
          cb(msg.reason);
        }
      });
}

BarrierClient::~BarrierClient() {
  endpoint_.engine().cancel(resend_event_);
}

void BarrierClient::enter(bool ok, const std::string& message,
                          ReleaseFn on_release, AbortFn on_abort) {
  entered_at_ = endpoint_.engine().now();
  on_release_ = std::move(on_release);
  on_abort_ = std::move(on_abort);
  CheckinMessage msg;
  msg.request = request_;
  msg.subjob = subjob_;
  msg.gram_job = api_->job();
  msg.rank = api_->local_rank();
  msg.ok = ok;
  msg.message = message;
  util::Writer w;
  msg.encode(w);
  checkin_frame_ = net::Endpoint::encode_notify(kNotifyCheckin, w.take());
  send_checkin();
}

void BarrierClient::send_checkin() {
  if (settled_) return;
  endpoint_.notify_frame(contact_, checkin_frame_.share());
  if (resend_period_ > 0) {
    resend_event_ = endpoint_.engine().schedule_after(
        resend_period_, [this] { send_checkin(); });
  }
}

}  // namespace grid::core
