// Post-release runtime configuration (paper §3.3).
//
// The barrier release message carries everything a process needs for the
// configuration mechanisms: the number of subjobs, the size of each, rank
// bases, a leader address per subjob (inter-subjob communication), and the
// member addresses of the process's own subjob (intra-subjob
// communication).  No extra rendezvous round is needed (DESIGN.md §5 item 6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "net/network.hpp"
#include "simkit/codec.hpp"

namespace grid::core {

/// One subjob's slot in the released configuration.
struct SubjobLayout {
  SubjobHandle subjob = 0;
  std::int32_t index = 0;      // position in the configuration
  std::int32_t size = 0;       // processes in the subjob
  std::int32_t rank_base = 0;  // global rank of the subjob's rank 0
  net::NodeId leader = net::kInvalidNode;  // rank-0 process address
  std::string contact;         // resource manager contact (diagnostics)

  bool operator==(const SubjobLayout&) const = default;
};

/// The ensemble-wide configuration shared by all released processes.
struct RuntimeConfig {
  RequestId request = 0;
  std::int32_t total_processes = 0;
  std::vector<SubjobLayout> subjobs;

  void encode(util::Writer& w) const;
  static RuntimeConfig decode(util::Reader& r);

  bool operator==(const RuntimeConfig&) const = default;
};

/// Per-process release payload: the shared configuration plus this
/// process's coordinates and its own subjob's member addresses.
struct ReleaseInfo {
  RuntimeConfig config;
  std::int32_t subjob_index = 0;
  std::int32_t local_rank = 0;
  std::int32_t global_rank = 0;
  std::vector<net::NodeId> subjob_members;  // address of each local rank

  void encode(util::Writer& w) const;
  /// Encodes the same bytes from the parts, so a sender framing one release
  /// per process need not copy the shared configuration into each.
  static void encode(util::Writer& w, const RuntimeConfig& config,
                     std::int32_t subjob_index, std::int32_t local_rank,
                     std::int32_t global_rank,
                     const std::vector<net::NodeId>& subjob_members);
  static ReleaseInfo decode(util::Reader& r);
};

/// A release payload read in place.  Reading walks the whole encoding, so
/// a payload ReleaseInfo::decode would reject leaves the reader failed, but
/// keeps only what every process reads: the layout stays in the payload and
/// a release allocates nothing.  A view is valid while its payload is,
/// i.e. inside the release handler; a consumer that keeps the layout copies
/// it out with info().
class ReleaseView {
 public:
  /// Reads one ReleaseInfo encoding from `r`.
  explicit ReleaseView(util::Reader& r);

  std::int32_t global_rank() const { return global_rank_; }

  /// Decodes the whole release into owned storage.
  ReleaseInfo info() const;

 private:
  util::Reader encoding_;  // positioned at the encoding's first byte
  std::int32_t global_rank_ = 0;
};

}  // namespace grid::core
