// Resource broker: forecast-guided resource selection (paper §2.2, §3.1).
//
// "applications (or resource brokers acting on their behalf) that require
// collections of resources" — the broker is the agent-side consumer of the
// information service: it queries published queue snapshots for a set of
// candidate resources, ranks them with a wait-time predictor, and builds
// the subjob requests for the best candidates, which the caller then feeds
// to a co-allocator.  §2.2's over-allocation strategy ("attempt to
// allocate more resources than it really needs") is supported by selecting
// more placements than required and marking the surplus interactive.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "info/gis.hpp"
#include "rsl/attributes.hpp"
#include "sched/predict.hpp"

namespace grid::info {

class ResourceBroker {
 public:
  /// `client` and `predictor` must outlive the broker.
  ResourceBroker(GisClient& client,
                 const sched::AggregateWorkPredictor& predictor)
      : client_(&client), predictor_(&predictor) {}

  struct Placement {
    std::string contact;
    sim::Time predicted_wait = 0;
    std::int32_t free_processors = 0;
  };

  using SelectFn =
      std::function<void(util::Result<std::vector<Placement>>)>;

  /// Ranks `candidates` for a subjob of `count` processors and returns the
  /// best `k` (ascending predicted wait).  Candidates whose machine is too
  /// small, or whose snapshot cannot be fetched, are skipped; fewer than
  /// `k` usable candidates is an error.  Fetches full snapshots and ranks
  /// their summarize()d aggregates.
  void select(std::vector<std::string> candidates, std::size_t k,
              std::int32_t count, sim::Time timeout, SelectFn on_done);

  /// Same ranking via aggregate-only summary queries: replies are O(1)
  /// regardless of queue depth, and the result is identical to select()'s.
  /// This is the path sustained co-allocation traffic uses at scale.
  void select_by_summary(std::vector<std::string> candidates, std::size_t k,
                         std::int32_t count, sim::Time timeout,
                         SelectFn on_done);

  /// Builds one subjob request per placement.
  static std::vector<rsl::JobRequest> build_requests(
      const std::vector<Placement>& placements, std::int32_t count,
      const std::string& executable,
      rsl::SubjobStartType start_type = rsl::SubjobStartType::kInteractive);

 private:
  /// The ranking both entry points share: drops failed and too-small
  /// candidates, predicts the rest, and keeps the `k` shortest waits in
  /// candidate order on ties.
  util::Result<std::vector<Placement>> rank(
      const std::vector<std::string>& names,
      const std::vector<util::Result<sched::QueueSummary>>& summaries,
      std::size_t k, std::int32_t count) const;

  GisClient* client_;
  const sched::AggregateWorkPredictor* predictor_;
};

}  // namespace grid::info
