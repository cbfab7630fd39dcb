#include "net/rpc.hpp"

#include <utility>

#include "simkit/check.hpp"

namespace grid::net {

namespace {
Endpoint::TeardownReport& teardown_report_slot() {
  // Per-thread by design: each TrialPool worker audits its own endpoints'
  // teardowns; reports never cross threads.
  GRID_SHARD_LOCAL thread_local Endpoint::TeardownReport report;
  return report;
}

/// The handler registered for `key` in a registration table, or nullptr.
template <typename Table>
auto* find_handler(Table& table, std::uint32_t key) {
  decltype(&table.front().fn) found = nullptr;
  for (auto& r : table) {
    if (r.key == key) {
      found = &r.fn;
      break;
    }
  }
  return found;
}

/// Registers `fn` for `key`; re-registering a key replaces its handler.
template <typename Table, typename Fn>
void add_handler(Table& table, std::uint32_t key, Fn fn) {
  if (auto* existing = find_handler(table, key)) {
    *existing = std::move(fn);
    return;
  }
  if (table.empty()) table.reserve(2);
  table.push_back({key, std::move(fn)});
}

}  // namespace

const Endpoint::TeardownReport& Endpoint::last_teardown_report() {
  return teardown_report_slot();
}

Endpoint::Endpoint(Network& network, std::string name)
    : network_(&network), name_(std::move(name)) {
  id_ = network_->attach(this);
}

Endpoint::~Endpoint() {
  // Teardown with outstanding calls must leave nothing scheduled that
  // captures `this`: cancel every per-call timeout, so callbacks simply
  // never fire.  The audit counts what the drain found.
  TeardownReport report;
  report.pending_calls = pending_.size();
  pending_.for_each([this, &report](std::uint64_t, PendingCall& pc) {
    if (engine().cancel(pc.timeout_event)) ++report.timers_cancelled;
  });
  pending_.clear();
  report.leaked_slots = pending_.size();
  GRID_CHECK(report.leaked_slots == 0,
             "Endpoint teardown leaked call-table slots");
  GRID_CHECK(pending_.consistent(),
             "Endpoint call table inconsistent at teardown");
  teardown_report_slot() = report;
  network_->detach(id_);
}

std::uint64_t Endpoint::call(NodeId dst, std::uint32_t method,
                             sim::Payload args, sim::Time timeout,
                             ResponseFn on_response) {
  const std::uint64_t call_id = next_call_id_++;
  util::Writer w;
  w.reserve(16 + args.size());
  w.varint(call_id);
  w.u32(method);
  w.blob(args);
  PendingCall pc;
  pc.on_response = std::move(on_response);
  if (timeout > 0) {
    pc.timeout_event = engine().schedule_after(timeout, [this, call_id] {
      fail_call(call_id, util::ErrorCode::kTimeout, "rpc timeout");
    });
  }
  pending_.emplace(call_id, std::move(pc));
  network_->send(id_, dst, kFrameRequest, w.take());
  return call_id;
}

void Endpoint::fail_call(std::uint64_t call_id, util::ErrorCode code,
                         const std::string& message) {
  PendingCall* pc = pending_.find(call_id);
  if (pc == nullptr) return;
  ResponseFn fn = std::move(pc->on_response);
  engine().cancel(pc->timeout_event);
  pending_.erase(call_id);
  util::Reader r(nullptr, 0);
  const util::Status status(code, message);
  fn(status, r);
}

void Endpoint::register_method(std::uint32_t method, MethodHandler handler) {
  add_handler(methods_, method, std::move(handler));
}

void Endpoint::respond(NodeId caller, std::uint64_t call_id,
                       sim::Payload result) {
  util::Writer w;
  w.reserve(12 + result.size());
  w.varint(call_id);
  w.boolean(true);
  w.blob(result);
  network_->send(id_, caller, kFrameResponse, w.take());
}

void Endpoint::respond_error(NodeId caller, std::uint64_t call_id,
                             util::ErrorCode code, std::string message) {
  util::Writer w;
  w.reserve(13 + message.size());
  w.varint(call_id);
  w.boolean(false);
  w.u8(static_cast<std::uint8_t>(code));
  w.str(message);
  network_->send(id_, caller, kFrameResponse, w.take());
}

void Endpoint::notify(NodeId dst, std::uint32_t kind, sim::Payload payload) {
  notify_frame(dst, encode_notify(kind, payload));
}

sim::Payload Endpoint::encode_notify(std::uint32_t kind,
                                     const sim::Payload& payload) {
  util::Writer w;
  w.reserve(14 + payload.size());
  w.u32(kind);
  w.blob(payload);
  return w.take();
}

void Endpoint::notify_frame(NodeId dst, sim::Payload frame) {
  network_->send(id_, dst, kFrameNotify, std::move(frame));
}

void Endpoint::register_notify(std::uint32_t kind, NotifyHandler handler) {
  add_handler(notifies_, kind, std::move(handler));
}

void Endpoint::handle_message(const Message& msg) {
  util::Reader r(msg.payload);
  switch (msg.kind) {
    case kFrameRequest: {
      const std::uint64_t call_id = r.varint();
      const std::uint32_t method = r.u32();
      // View into the message buffer: the args reader borrows the payload
      // for the duration of the handler, no copy.
      const auto args = r.blob_view();
      if (!r.ok()) return;  // malformed frame: drop
      MethodHandler* handler = find_handler(methods_, method);
      if (handler == nullptr) {
        respond_error(msg.src, call_id, util::ErrorCode::kNotFound,
                      "unknown method " + std::to_string(method));
        return;
      }
      util::Reader args_reader(args.data(), args.size());
      (*handler)(msg.src, call_id, args_reader);
      return;
    }
    case kFrameResponse: {
      const std::uint64_t call_id = r.varint();
      const bool ok = r.boolean();
      PendingCall* pc = pending_.find(call_id);
      if (pc == nullptr) return;  // late or dropped: ignore
      ResponseFn fn = std::move(pc->on_response);
      engine().cancel(pc->timeout_event);
      pending_.erase(call_id);
      if (ok) {
        const auto result = r.blob_view();
        if (!r.ok()) {
          util::Reader rr(nullptr, 0);
          fn(util::Status(util::ErrorCode::kInternal, "malformed response"),
             rr);
          return;
        }
        util::Reader result_reader(result.data(), result.size());
        fn(util::Status::ok(), result_reader);
      } else {
        const auto code = static_cast<util::ErrorCode>(r.u8());
        const std::string message = r.str();
        util::Reader rr(nullptr, 0);
        fn(util::Status(r.ok() ? code : util::ErrorCode::kInternal, message),
           rr);
      }
      return;
    }
    case kFrameNotify: {
      const std::uint32_t kind = r.u32();
      const auto payload = r.blob_view();
      if (!r.ok()) return;
      NotifyHandler* handler = find_handler(notifies_, kind);
      if (handler == nullptr) return;
      util::Reader payload_reader(payload.data(), payload.size());
      (*handler)(msg.src, payload_reader);
      return;
    }
    default:
      return;  // unknown frame: drop
  }
}

void Endpoint::on_crash() {
  pending_.for_each([this](std::uint64_t, PendingCall& pc) {
    engine().cancel(pc.timeout_event);
  });
  pending_.clear();
  if (crash_hook) crash_hook();
}

}  // namespace grid::net
