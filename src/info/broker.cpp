#include "info/broker.hpp"

#include <algorithm>

namespace grid::info {

void ResourceBroker::select(std::vector<std::string> candidates,
                            std::size_t k, std::int32_t count,
                            sim::Time timeout, SelectFn on_done) {
  if (k == 0 || candidates.empty()) {
    on_done(util::Status(util::ErrorCode::kInvalidArgument,
                         "no candidates or zero selection size"));
    return;
  }
  auto names = candidates;  // keep order for result mapping
  client_->query_many(
      std::move(candidates), timeout,
      [this, names = std::move(names), k, count,
       on_done = std::move(on_done)](
          std::vector<util::Result<sched::QueueSnapshot>> snaps) {
        std::vector<util::Result<sched::QueueSummary>> summaries;
        summaries.reserve(snaps.size());
        for (const auto& snap : snaps) {
          if (snap.is_ok()) {
            summaries.emplace_back(sched::summarize(snap.value()));
          } else {
            summaries.emplace_back(snap.status());
          }
        }
        on_done(rank(names, summaries, k, count));
      });
}

void ResourceBroker::select_by_summary(std::vector<std::string> candidates,
                                       std::size_t k, std::int32_t count,
                                       sim::Time timeout, SelectFn on_done) {
  if (k == 0 || candidates.empty()) {
    on_done(util::Status(util::ErrorCode::kInvalidArgument,
                         "no candidates or zero selection size"));
    return;
  }
  auto names = candidates;  // keep order for result mapping
  client_->query_many_summaries(
      std::move(candidates), timeout,
      [this, names = std::move(names), k, count,
       on_done = std::move(on_done)](
          std::vector<util::Result<sched::QueueSummary>> summaries) {
        on_done(rank(names, summaries, k, count));
      });
}

util::Result<std::vector<ResourceBroker::Placement>> ResourceBroker::rank(
    const std::vector<std::string>& names,
    const std::vector<util::Result<sched::QueueSummary>>& summaries,
    std::size_t k, std::int32_t count) const {
  std::vector<Placement> usable;
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    if (!summaries[i].is_ok()) continue;  // unreachable or unknown
    const sched::QueueSummary& s = summaries[i].value();
    if (s.total_processors < count) continue;  // machine too small
    Placement p;
    p.contact = names[i];
    p.predicted_wait = predictor_->predict(s, count);
    p.free_processors = s.free_processors();
    usable.push_back(std::move(p));
  }
  if (usable.size() < k) {
    return util::Status(util::ErrorCode::kResourceExhausted,
                        "only " + std::to_string(usable.size()) + " of " +
                            std::to_string(k) +
                            " required candidates are usable");
  }
  std::stable_sort(usable.begin(), usable.end(),
                   [](const Placement& a, const Placement& b) {
                     return a.predicted_wait < b.predicted_wait;
                   });
  usable.resize(k);
  return usable;
}

std::vector<rsl::JobRequest> ResourceBroker::build_requests(
    const std::vector<Placement>& placements, std::int32_t count,
    const std::string& executable, rsl::SubjobStartType start_type) {
  std::vector<rsl::JobRequest> out;
  out.reserve(placements.size());
  for (const Placement& p : placements) {
    rsl::JobRequest j;
    j.resource_manager_contact = p.contact;
    j.executable = executable;
    j.count = count;
    j.start_type = start_type;
    out.push_back(std::move(j));
  }
  return out;
}

}  // namespace grid::info
