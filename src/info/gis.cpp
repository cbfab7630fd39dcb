#include "info/gis.hpp"

#include <memory>

namespace grid::info {

void encode_snapshot(util::Writer& w, const sched::QueueSnapshot& snap) {
  w.i64(snap.taken_at);
  w.i32(snap.total_processors);
  w.i32(snap.busy_processors);
  w.varint(snap.queued.size());
  for (const sched::QueuedJobInfo& j : snap.queued) {
    w.u64(j.id);
    w.i32(j.count);
    w.i64(j.estimated_runtime);
    w.i64(j.submitted_at);
  }
}

sched::QueueSnapshot decode_snapshot(util::Reader& r) {
  sched::QueueSnapshot snap;
  snap.taken_at = r.i64();
  snap.total_processors = r.i32();
  snap.busy_processors = r.i32();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    sched::QueuedJobInfo j;
    j.id = r.u64();
    j.count = r.i32();
    j.estimated_runtime = r.i64();
    j.submitted_at = r.i64();
    snap.queued.push_back(j);
  }
  return snap;
}

void encode_summary(util::Writer& w, const sched::QueueSummary& summary) {
  w.i64(summary.taken_at);
  w.i32(summary.total_processors);
  w.i32(summary.busy_processors);
  w.u32(summary.queue_length);
  w.i64(summary.queued_work);
}

sched::QueueSummary decode_summary(util::Reader& r) {
  sched::QueueSummary s;
  s.taken_at = r.i64();
  s.total_processors = r.i32();
  s.busy_processors = r.i32();
  s.queue_length = r.u32();
  s.queued_work = r.i64();
  return s;
}

namespace {

util::Result<sched::QueueSnapshot> snapshot_reply(const util::Status& status,
                                                  util::Reader& reply) {
  if (!status.is_ok()) return status;
  sched::QueueSnapshot snap = decode_snapshot(reply);
  if (!reply.ok()) {
    return util::Status(util::ErrorCode::kInternal, "malformed snapshot");
  }
  return snap;
}

util::Result<sched::QueueSummary> summary_reply(const util::Status& status,
                                                util::Reader& reply) {
  if (!status.is_ok()) return status;
  sched::QueueSummary summary = decode_summary(reply);
  if (!reply.ok()) {
    return util::Status(util::ErrorCode::kInternal, "malformed summary");
  }
  return summary;
}

sim::Payload contact_args(const std::string& contact) {
  util::Writer w;
  w.str(contact);
  return w.take();
}

/// The ordered gather behind both fan-outs: calls `method` once per
/// contact, in contact order, so the calls run concurrently; decodes reply
/// i with `decode` into slot i; and fires `on_done` once.  The per-call
/// callback fits the endpoint's inline ResponseFn, so a fan-out allocates
/// nothing per candidate.
template <typename T>
void gather(net::Endpoint& endpoint, net::NodeId server, std::uint32_t method,
            const std::vector<std::string>& contacts, sim::Time timeout,
            util::Result<T> (*decode)(const util::Status&, util::Reader&),
            std::function<void(std::vector<util::Result<T>>)> on_done) {
  if (contacts.empty()) {
    on_done({});
    return;
  }
  struct Gather {
    std::vector<util::Result<T>> results;
    std::size_t pending = 0;
    util::Result<T> (*decode)(const util::Status&, util::Reader&);
    std::function<void(std::vector<util::Result<T>>)> on_done;
  };
  auto g = std::make_shared<Gather>();
  g->results.assign(
      contacts.size(),
      util::Result<T>(util::Status(util::ErrorCode::kInternal, "pending")));
  g->pending = contacts.size();
  g->decode = decode;
  g->on_done = std::move(on_done);
  for (std::size_t i = 0; i < contacts.size(); ++i) {
    endpoint.call(server, method, contact_args(contacts[i]), timeout,
                  [g, i](const util::Status& status, util::Reader& reply) {
                    g->results[i] = g->decode(status, reply);
                    if (--g->pending == 0) g->on_done(std::move(g->results));
                  });
  }
}

}  // namespace

GisServer::GisServer(net::Network& network,
                     sched::LoadInformationService& service,
                     sim::Time query_cost)
    : endpoint_(network, "gis"), service_(&service), query_cost_(query_cost) {
  endpoint_.register_method(
      kMethodQuery,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_query(caller, call_id, args);
      });
  endpoint_.register_method(
      kMethodListContacts,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_list(caller, call_id, args);
      });
  endpoint_.register_method(
      kMethodQuerySummary,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_query_summary(caller, call_id, args);
      });
}

void GisServer::set_contacts(std::vector<std::string> contacts) {
  contacts_ = std::move(contacts);
}

void GisServer::handle_query(net::NodeId caller, std::uint64_t call_id,
                             util::Reader& args) {
  std::string contact = args.str();
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed query");
    return;
  }
  // Resolve the contact to its interned id at arrival; the deferred service
  // body then runs string-free.
  const auto id = service_->resolve(contact);
  endpoint_.engine().schedule_after(query_cost_, [this, caller, call_id, id] {
    serve_query(caller, call_id, id);
  });
}

void GisServer::serve_query(net::NodeId caller, std::uint64_t call_id,
                            sched::LoadInformationService::ContactId id) {
  ++served_;
  const std::uint64_t version = service_->published_version(id);
  if (cache_enabled_ && version != 0 && id <= cache_.size() &&
      cache_[id - 1].version == version) {
    ++cache_stats_.hits;
    endpoint_.respond(caller, call_id, cache_[id - 1].frame.share());
    return;
  }
  auto snap = service_->snapshot_ref(id);
  if (!snap.is_ok()) {
    endpoint_.respond_error(caller, call_id, snap.status().code(),
                            snap.status().message());
    return;
  }
  ++cache_stats_.misses;
  util::Writer w;
  encode_snapshot(w, *snap.value());
  sim::Payload reply = w.take();
  if (cache_enabled_ && version != 0) {
    if (cache_.size() < id) cache_.resize(id);
    cache_[id - 1] = CachedReply{version, reply.share()};
  }
  endpoint_.respond(caller, call_id, std::move(reply));
}

void GisServer::handle_query_summary(net::NodeId caller, std::uint64_t call_id,
                                     util::Reader& args) {
  std::string contact = args.str();
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed query");
    return;
  }
  const auto id = service_->resolve(contact);
  endpoint_.engine().schedule_after(query_cost_, [this, caller, call_id, id] {
    ++served_;
    auto summary = service_->summary(id);
    if (!summary.is_ok()) {
      endpoint_.respond_error(caller, call_id, summary.status().code(),
                              summary.status().message());
      return;
    }
    util::Writer w;
    encode_summary(w, summary.value());
    endpoint_.respond(caller, call_id, w.take());
  });
}

void GisServer::handle_list(net::NodeId caller, std::uint64_t call_id,
                            util::Reader&) {
  endpoint_.engine().schedule_after(query_cost_, [this, caller, call_id] {
    ++served_;
    util::Writer w;
    w.varint(contacts_.size());
    for (const std::string& c : contacts_) w.str(c);
    endpoint_.respond(caller, call_id, w.take());
  });
}

GisClient::GisClient(net::Endpoint& endpoint, net::NodeId server)
    : endpoint_(&endpoint), server_(server) {}

void GisClient::query(const std::string& contact, sim::Time timeout,
                      SnapshotFn on_done) {
  endpoint_->call(server_, kMethodQuery, contact_args(contact), timeout,
                  [on_done = std::move(on_done)](const util::Status& status,
                                                 util::Reader& reply) {
                    on_done(snapshot_reply(status, reply));
                  });
}

void GisClient::query_summary(const std::string& contact, sim::Time timeout,
                              SummaryFn on_done) {
  endpoint_->call(server_, kMethodQuerySummary, contact_args(contact), timeout,
                  [on_done = std::move(on_done)](const util::Status& status,
                                                 util::Reader& reply) {
                    on_done(summary_reply(status, reply));
                  });
}

void GisClient::list_contacts(sim::Time timeout, ContactsFn on_done) {
  endpoint_->call(server_, kMethodListContacts, {}, timeout,
                  [on_done = std::move(on_done)](const util::Status& status,
                                                 util::Reader& reply) {
                    if (!status.is_ok()) {
                      on_done(status);
                      return;
                    }
                    // `n` comes off the wire: never reserve it.
                    const std::uint64_t n = reply.varint();
                    std::vector<std::string> contacts;
                    for (std::uint64_t i = 0; i < n && reply.ok(); ++i) {
                      contacts.push_back(reply.str());
                    }
                    if (!reply.ok()) {
                      on_done(util::Status(util::ErrorCode::kInternal,
                                           "malformed contact list"));
                      return;
                    }
                    on_done(std::move(contacts));
                  });
}

void GisClient::query_many(
    std::vector<std::string> contacts, sim::Time timeout,
    std::function<void(std::vector<util::Result<sched::QueueSnapshot>>)>
        on_done) {
  gather(*endpoint_, server_, kMethodQuery, contacts, timeout, &snapshot_reply,
         std::move(on_done));
}

void GisClient::query_many_summaries(
    std::vector<std::string> contacts, sim::Time timeout,
    std::function<void(std::vector<util::Result<sched::QueueSummary>>)>
        on_done) {
  gather(*endpoint_, server_, kMethodQuerySummary, contacts, timeout,
         &summary_reply, std::move(on_done));
}

}  // namespace grid::info
