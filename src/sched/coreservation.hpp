// Co-reservation: all-or-nothing acquisition of matching advance-
// reservation windows across multiple resources (paper §2.2 and §5: "how
// the co-allocation approaches presented in this paper can be applied to
// co-reservation as well as co-allocation").
//
// The agent applies the same two-phase structure as the atomic
// co-allocation strategy, to reservations: probe a window start, try to
// reserve it on every machine, and roll back all partial acquisitions if
// any machine refuses; then advance the probe and retry until the horizon.
#pragma once

#include <vector>

#include "sched/reservation.hpp"

namespace grid::sched {

class CoReservationAgent {
 public:
  struct Options {
    /// Give up when no common window starts before this (probing starts
    /// at time 0).
    sim::Time horizon = 48 * sim::kHour;
    /// Probe granularity.
    sim::Time step = 10 * sim::kMinute;
    /// Window length.
    sim::Time duration = sim::kHour;
    /// Processors reserved on every machine.
    std::int32_t count = 1;
  };

  struct Hold {
    ReservationScheduler* scheduler = nullptr;
    Reservation reservation;
  };

  /// Acquires a common window on every scheduler, or nothing.  On success
  /// all reservations share the same [start, start+duration) window.
  static util::Result<std::vector<Hold>> acquire(
      const std::vector<ReservationScheduler*>& schedulers,
      const Options& options);

  /// Releases held reservations (rollback or cleanup).  Clears `holds`.
  static void release(std::vector<Hold>& holds);

  /// Convenience: the common window start of a successful acquisition.
  static sim::Time window_start(const std::vector<Hold>& holds) {
    return holds.empty() ? -1 : holds.front().reservation.start;
  }
};

}  // namespace grid::sched
