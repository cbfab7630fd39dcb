// gridlint-fixture: src/sched/fixture.cpp -
// gridlint-fixture-ast: shard-safety
// Mutable static-storage state is invisible to the regex engine (any
// token pattern would drown in false positives) but exactly resolvable
// from storage classes: two concurrent TrialPool trials touching any of
// these break the byte-identity of their results.  The GRID_SHARD_LOCAL-annotated variable is the
// sanctioned shape and must NOT fire.
#include <cstdint>

#include "simkit/annotate.hpp"

std::uint64_t g_fixture_hits = 0;  // namespace-scope mutable: fires

struct FixtureCache {
  static int generation;  // static data member: fires
};
int FixtureCache::generation = 0;

int fixture_next_id() {
  static int next = 1;  // function-local static: fires
  return next++;
}

// Per-thread by design, annotated as such: must not fire.
GRID_SHARD_LOCAL thread_local std::uint64_t t_fixture_scratch = 0;

// Immutable: must not fire.
const std::uint64_t kFixtureLimit = 64;
constexpr std::uint64_t kFixtureMask = 0xff;
