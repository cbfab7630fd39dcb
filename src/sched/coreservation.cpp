#include "sched/coreservation.hpp"

namespace grid::sched {

util::Result<std::vector<CoReservationAgent::Hold>>
CoReservationAgent::acquire(
    const std::vector<ReservationScheduler*>& schedulers,
    const Options& options) {
  if (schedulers.empty()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "no schedulers to co-reserve");
  }
  if (options.step <= 0 || options.duration <= 0) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "step and duration must be positive");
  }
  std::vector<Hold> holds;
  for (sim::Time probe = 0; probe <= options.horizon;
       probe += options.step) {
    holds.clear();
    bool all = true;
    for (ReservationScheduler* sched : schedulers) {
      auto r = sched->reserve(probe, probe + options.duration, options.count);
      if (!r.is_ok()) {
        all = false;
        break;
      }
      holds.push_back(Hold{sched, r.value()});
    }
    if (all) return holds;
    release(holds);  // roll back partial acquisition (phase 2 abort)
  }
  return util::Status(util::ErrorCode::kResourceExhausted,
                      "no common reservation window before the horizon");
}

void CoReservationAgent::release(std::vector<Hold>& holds) {
  for (Hold& h : holds) {
    if (h.scheduler != nullptr) {
      h.scheduler->cancel_reservation(h.reservation.id);
    }
  }
  holds.clear();
}

}  // namespace grid::sched
