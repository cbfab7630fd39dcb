"""One rule table shared by both engines, plus the suppression model.

A rule is identified by its id string; both engines report findings under
the same ids, so inline `// gridlint: allow(<rule>)` comments and the
file-level ALLOW table below mean the same thing regardless of which
engine produced the finding.

`engines` declares where a rule is implemented:
  "both"   regex approximation exists and the AST engine refines it
           (the AST engine always runs the regex pass too, so its output
           is the union of the two);
  "regex"  text-only rule, not re-implemented in the AST engine;
  "ast"    needs symbols/types/storage classes — documented N/A for the
           regex engine (see the fixture headers for per-engine
           expectations).
"""

from __future__ import annotations

import dataclasses

SOURCE_DIRS = ("src", "bench", "examples", "tools")
SOURCE_EXTS = (".cpp", ".hpp", ".h", ".cc")


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    snippet: str

    def key(self):
        return (self.path, self.line, self.rule)


@dataclasses.dataclass(frozen=True)
class Rule:
    rid: str
    message: str
    engines: str  # "both" | "regex" | "ast"


def _in_src(path: str) -> bool:
    return path.startswith("src/")


def _in_sim_sources(path: str) -> bool:
    """src/ plus the bench/example drivers whose outputs we publish."""
    return path.startswith(("src/", "bench/", "examples/"))


RULES = {
    "wallclock": Rule(
        "wallclock",
        "wall-clock time source; simulated code uses sim::Engine time",
        "both"),
    "env": Rule(
        "env",
        "raw environment access; go through the ProcessApi abstraction",
        "both"),
    "hot-container": Rule(
        "hot-container",
        "unordered container in a GRID_HOT file; use sim::IdMap/sim::IdSlab",
        "both"),
    "hot-function": Rule(
        "hot-function",
        "std::function in a GRID_HOT file; use sim::InplaceFunction",
        "both"),
    "unordered-iter": Rule(
        "unordered-iter",
        "iteration over an unordered container; order is hash-dependent "
        "and must not reach events or messages",
        "both"),
    "naked-new": Rule(
        "naked-new",
        "raw allocation in a GRID_HOT file; use the buffer pool / slabs",
        "both"),
    "shard-safety": Rule(
        "shard-safety",
        "mutable static-storage state; concurrent TrialPool trials "
        "reaching it break the byte-identity of their results — make it "
        "per-thread and annotate GRID_SHARD_LOCAL, or justify an allow",
        "ast"),
    "dangling-capture": Rule(
        "dangling-capture",
        "deferred callback captures by reference; the frame may be gone "
        "when the engine fires it — capture by value (or justify that the "
        "referent outlives the run)",
        "both"),
    "time-unit": Rule(
        "time-unit",
        "raw integer literal flowing into a sim::Time parameter; multiply "
        "by a unit constant (sim::kSecond, ...) so the magnitude is "
        "auditable",
        "both"),
    "rng-discipline": Rule(
        "rng-discipline",
        "non-deterministic or shared RNG; every component takes a seeded "
        "sim::Rng (or forks one) so runs replay exactly",
        "both"),
    "addr-order": Rule(
        "addr-order",
        "ordering keyed on pointer values; addresses vary run-to-run, so "
        "the order is not reproducible — key on ids or stable fields",
        "both"),
}

# Rule applicability by pretend/real path.  Hot rules are annotation-
# driven (see textprep.hot_files) and therefore not listed here.
SCOPES = {
    "wallclock": _in_src,
    "env": _in_src,
    "unordered-iter": _in_src,
    "shard-safety": _in_src,
    "rng-discipline": _in_sim_sources,
    "addr-order": _in_sim_sources,
    "time-unit": _in_sim_sources,
    "dangling-capture": _in_sim_sources,
}


def rule_applies(rid: str, path: str, hot: bool) -> bool:
    if rid in ("hot-container", "hot-function", "naked-new"):
        return hot
    return SCOPES[rid](path)


# File-level allows.  Every entry says WHY the rule does not apply; an
# unexplained entry is a review failure, not a config.
ALLOW = {
    ("src/simkit/trialpool.cpp", "wallclock"):
        "the trial pool is the harness boundary: it times real threads",
    ("src/simkit/trialpool.cpp", "env"):
        "GRID_TRIAL_THREADS is read once at pool construction, harness-side",
    ("src/gram/process.hpp", "env"):
        "ProcessApi IS the sanctioned environment abstraction",
    ("src/gram/jobmanager.cpp", "env"):
        "concrete ProcessApi implementation backing the abstraction",
    ("src/simkit/allocguard.cpp", "shard-safety"):
        "the allocation counter is the measurement instrument itself, "
        "thread-local by construction and read only by benches/tests",
}

SUPPRESS_RE_TEXT = r"gridlint:\s*allow\(([a-z-]+)\)"


def suppressed_lines(raw_lines):
    """Line number (1-based) -> rules suppressed there.  An allow comment
    covers its own line and the line after it."""
    import re
    supp = {}
    for idx, line in enumerate(raw_lines, start=1):
        for m in re.finditer(SUPPRESS_RE_TEXT, line):
            supp.setdefault(idx, set()).add(m.group(1))
            supp.setdefault(idx + 1, set()).add(m.group(1))
    return supp


class SuppressionIndex:
    """Answers 'is rule R allowed at path:line?' for one file."""

    def __init__(self, path: str, raw_lines):
        self._path = path
        self._supp = suppressed_lines(raw_lines)

    def allowed(self, rule: str, lineno: int) -> bool:
        if (self._path, rule) in ALLOW:
            return True
        return rule in self._supp.get(lineno, set())
