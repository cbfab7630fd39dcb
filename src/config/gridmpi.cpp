#include "config/gridmpi.hpp"

namespace grid::cfg {

Communicator::Communicator(net::Endpoint& endpoint, core::ReleaseInfo info)
    : endpoint_(&endpoint), runtime_(std::move(info)) {
  my_subjob_nodes_ = runtime_.my_subjob_members();
  endpoint_->register_notify(
      kNotifyGridMpi, [this](net::NodeId src, util::Reader& payload) {
        handle(src, payload);
      });
}

Communicator::~Communicator() = default;

void Communicator::raw_send(net::NodeId node, sim::Payload frame) {
  endpoint_->notify(node, kNotifyGridMpi, std::move(frame));
}

net::NodeId Communicator::address_of(std::int32_t global_rank) const {
  if (global_rank < 0 ||
      static_cast<std::size_t>(global_rank) >= table_.size()) {
    return net::kInvalidNode;
  }
  return table_[static_cast<std::size_t>(global_rank)];
}

// ---- bootstrap ---------------------------------------------------------------

void Communicator::init(std::function<void()> on_ready) {
  const std::int32_t nsub = runtime_.subjob_count();
  if (runtime_.my_subjob() < 0 || runtime_.my_subjob() >= nsub ||
      runtime_.total_processes() < 0) {
    // The release names no slot of its own layout, or a negative world
    // size: nothing can be indexed or sized from it.
    return;
  }
  on_ready_ = std::move(on_ready);
  if (!runtime_.is_leader()) {
    // Members wait for the full table from their leader (stage 3).
    return;
  }
  // Stage 2: leaders exchange member tables.  Each leader already knows its
  // own subjob's members from the release payload (§3.3 intra-subjob
  // mechanism) and every other subjob's leader address (inter-subjob
  // mechanism).
  leader_tables_.assign(static_cast<std::size_t>(nsub), {});
  leader_tables_[static_cast<std::size_t>(runtime_.my_subjob())] =
      my_subjob_nodes_;
  leader_tables_received_ = 1;
  util::Writer w;
  w.u8(kLeaderTable);
  w.i32(runtime_.my_subjob());
  w.varint(my_subjob_nodes_.size());
  for (net::NodeId n : my_subjob_nodes_) w.u32(n);
  const sim::Payload frame =
      net::Endpoint::encode_notify(kNotifyGridMpi, w.take());
  for (std::int32_t s = 0; s < nsub; ++s) {
    if (s == runtime_.my_subjob()) continue;
    endpoint_->notify_frame(runtime_.subjob_leader(s), frame.share());
  }
  maybe_broadcast_table();
}

void Communicator::on_leader_table(std::int32_t subjob,
                                   const std::vector<net::NodeId>& nodes) {
  // Before a leader's init() the tables are unsized: drop the frame.
  if (subjob < 0 || static_cast<std::size_t>(subjob) >= leader_tables_.size()) {
    return;
  }
  auto& slot = leader_tables_[static_cast<std::size_t>(subjob)];
  if (!slot.empty()) return;  // duplicate
  slot = nodes;
  ++leader_tables_received_;
  maybe_broadcast_table();
}

void Communicator::maybe_broadcast_table() {
  if (initialized_ ||
      leader_tables_received_ < runtime_.subjob_count()) {
    return;
  }
  // Stage 3: assemble the global table from the addresses the leaders
  // sent and push it to our members.  Every rank must get an address: the
  // layout must place the subjobs back to back from rank 0, and the
  // addresses must add up to the world size.  Otherwise stay
  // uninitialized.
  std::vector<net::NodeId> table;
  for (std::int32_t s = 0; s < runtime_.subjob_count(); ++s) {
    if (static_cast<std::size_t>(runtime_.rank_base(s)) != table.size()) return;
    const auto& nodes = leader_tables_[static_cast<std::size_t>(s)];
    table.insert(table.end(), nodes.begin(), nodes.end());
  }
  if (table.size() != static_cast<std::size_t>(runtime_.total_processes())) {
    return;
  }
  util::Writer w;
  w.u8(kFullTable);
  w.varint(table.size());
  for (net::NodeId n : table) w.u32(n);
  const sim::Payload frame =
      net::Endpoint::encode_notify(kNotifyGridMpi, w.take());
  for (std::size_t r = 1; r < my_subjob_nodes_.size(); ++r) {
    endpoint_->notify_frame(my_subjob_nodes_[r], frame.share());
  }
  adopt_table(std::move(table));
}

void Communicator::adopt_table(std::vector<net::NodeId> table) {
  if (initialized_) return;
  table_ = std::move(table);
  initialized_ = true;
  if (on_ready_) {
    auto cb = std::move(on_ready_);
    cb();
  }
}

// ---- dispatch ------------------------------------------------------------------

void Communicator::handle(net::NodeId /*src*/, util::Reader& r) {
  const auto kind = static_cast<Kind>(r.u8());
  // Counts come off the wire: never reserve them.
  switch (kind) {
    case kLeaderTable: {
      const std::int32_t subjob = r.i32();
      const std::uint64_t n = r.varint();
      std::vector<net::NodeId> nodes;
      for (std::uint64_t i = 0; i < n && r.ok(); ++i) nodes.push_back(r.u32());
      if (r.ok()) on_leader_table(subjob, nodes);
      return;
    }
    case kFullTable: {
      const std::uint64_t n = r.varint();
      std::vector<net::NodeId> table;
      for (std::uint64_t i = 0; i < n && r.ok(); ++i) table.push_back(r.u32());
      if (r.ok()) adopt_table(std::move(table));
      return;
    }
    case kUser: {
      const std::int32_t src_rank = r.i32();
      const std::int32_t tag = r.i32();
      const util::Bytes blob = r.blob();
      if (r.ok()) deliver_user(src_rank, tag, blob);
      return;
    }
    case kReduceContrib: {
      const std::uint64_t seq = r.u64();
      const std::int64_t value = r.i64();
      if (!r.ok()) return;
      ReduceState& state = reduce_state_[seq];
      state.value += value;
      ++state.contributions;
      if (state.contributions >= size()) {
        const std::int64_t total = state.value;
        reduce_state_.erase(seq);
        util::Writer w;
        w.u8(kReduceResult);
        w.u64(seq);
        w.i64(total);
        const sim::Payload frame =
            net::Endpoint::encode_notify(kNotifyGridMpi, w.take());
        for (std::int32_t g = 1; g < size(); ++g) {
          endpoint_->notify_frame(address_of(g), frame.share());
        }
        auto it = reduce_waiters_.find(seq);
        if (it != reduce_waiters_.end()) {
          auto cb = std::move(it->second);
          reduce_waiters_.erase(it);
          cb(total);
        } else {
          reduce_early_[seq] = total;
        }
      }
      return;
    }
    case kReduceResult: {
      const std::uint64_t seq = r.u64();
      const std::int64_t total = r.i64();
      if (!r.ok()) return;
      auto it = reduce_waiters_.find(seq);
      if (it == reduce_waiters_.end()) {
        reduce_early_[seq] = total;
        return;
      }
      auto cb = std::move(it->second);
      reduce_waiters_.erase(it);
      cb(total);
      return;
    }
  }
}

void Communicator::deliver_user(std::int32_t src_rank, std::int32_t tag,
                                const util::Bytes& blob) {
  auto it = handlers_.find(tag);
  if (it == handlers_.end()) {
    early_[tag].emplace_back(src_rank, blob);
    return;
  }
  util::Reader r(blob);
  it->second(src_rank, r);
}

// ---- user operations ------------------------------------------------------------

void Communicator::send(std::int32_t dst_rank, std::int32_t tag,
                        util::Bytes payload) {
  util::Writer w;
  w.u8(kUser);
  w.i32(rank());
  w.i32(tag);
  w.blob(payload);
  raw_send(address_of(dst_rank), w.take());
}

void Communicator::recv(std::int32_t tag, RecvHandler handler) {
  handlers_[tag] = std::move(handler);
  auto it = early_.find(tag);
  if (it == early_.end()) return;
  auto queued = std::move(it->second);
  early_.erase(it);
  auto& h = handlers_[tag];
  for (auto& [src_rank, blob] : queued) {
    util::Reader r(blob);
    h(src_rank, r);
  }
}

void Communicator::allreduce_sum(std::int64_t value,
                                 std::function<void(std::int64_t)> on_done) {
  const std::uint64_t seq = reduce_seq_++;
  reduce_waiters_[seq] = std::move(on_done);
  // A result that raced ahead of this call (possible on non-root ranks
  // when others finished first) is delivered immediately.
  if (auto it = reduce_early_.find(seq); it != reduce_early_.end()) {
    const std::int64_t total = it->second;
    reduce_early_.erase(it);
    auto cb = std::move(reduce_waiters_[seq]);
    reduce_waiters_.erase(seq);
    cb(total);
    return;
  }
  util::Writer w;
  w.u8(kReduceContrib);
  w.u64(seq);
  w.i64(value);
  if (rank() == 0) {
    util::Reader self(w.bytes());
    handle(endpoint_->id(), self);
  } else {
    raw_send(address_of(0), w.take());
  }
}

}  // namespace grid::cfg
