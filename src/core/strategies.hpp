// Reusable co-allocation agent strategies (paper §3.2's examples).
//
// The mechanism layer deliberately implements no policy; these classes are
// the application-specific strategies the paper says agents should compose
// from the mechanisms:
//
//  * ReplacementAgent — "interactive resources allow an application ... to
//    replace slow or failed elements of a request if an alternative
//    resource can be found": failed interactive subjobs are substituted
//    with spares from a candidate pool.
//
//  * MinimumCountAgent — the Figure 1 master/worker strategy: commit as
//    soon as enough worker processes have checked in, deleting interactive
//    subjobs that have not yet responded; abort if the minimum cannot be
//    reached by a deadline.
#pragma once

#include <string>
#include <vector>

#include "core/coallocator.hpp"
#include "simkit/annotate.hpp"

namespace grid::core {

/// Substitutes failed interactive subjobs with alternates from a pool, and
/// commits once every live subjob has checked in.
class GRID_HOT ReplacementAgent {
 public:
  struct Options {
    /// Contacts tried, in order, when an interactive subjob fails.
    std::vector<std::string> spare_contacts;
  };

  ReplacementAgent(Coallocator& mechanisms, Options options,
                   RequestCallbacks user_callbacks);

  CoallocationRequest& request() { return *request_; }
  std::size_t substitutions_made() const { return substitutions_; }
  const std::vector<std::string>& spares_left() const { return spares_; }

 private:
  void on_subjob(SubjobHandle handle, SubjobState state,
                 const util::Status& why);
  void maybe_commit();

  Coallocator* mech_;
  RequestCallbacks user_;
  CoallocationRequest* request_ = nullptr;
  std::vector<std::string> spares_;
  std::size_t substitutions_ = 0;
  bool committed_ = false;
};

/// Commits once a minimum process count has checked in, dropping
/// unresponsive interactive subjobs at that point (Figure 1 semantics).
class MinimumCountAgent {
 public:
  struct Options {
    /// Total checked-in processes (across checked-in subjobs) required
    /// before committing.
    std::int32_t minimum_processes = 1;
    /// Give up and abort if the minimum is not reached in time; 0 disables.
    sim::Time decision_deadline = 0;
  };

  MinimumCountAgent(Coallocator& mechanisms, Options options,
                    RequestCallbacks user_callbacks);
  ~MinimumCountAgent();

  CoallocationRequest& request() { return *request_; }
  std::int32_t checked_in_processes() const;

 private:
  void on_subjob(SubjobHandle handle, SubjobState state,
                 const util::Status& why);
  void evaluate();

  Coallocator* mech_;
  Options options_;
  RequestCallbacks user_;
  CoallocationRequest* request_ = nullptr;
  sim::EventId deadline_event_;
  bool committed_ = false;
};

}  // namespace grid::core
