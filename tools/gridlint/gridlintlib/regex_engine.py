"""Line-oriented fallback engine: the rules expressible over stripped text.

This is the engine that runs everywhere — it needs nothing beyond the
standard library.  Rules that need symbols, types, or storage classes
(shard-safety; the type-resolved refinements of unordered-iter, time-unit,
dangling-capture, addr-order) live in ast_engine.py; the approximations
here are deliberately narrow so they stay false-positive-free:

  unordered-iter    fires only when the range expression is a bare
                    identifier declared as an unordered container
                    somewhere in src/ (aliases, `auto`, and member
                    expressions evade it — the AST engine closes that);
  time-unit         fires only on a bare nonzero integer literal in the
                    first argument of the known Time sinks;
  dangling-capture  fires only on a `[&...]` lambda lexically inside a
                    schedule_at/schedule_after argument list;
  rng-discipline    fires on the std <random> machinery by name;
  addr-order        fires on pointer-keyed std::map/std::set types.
"""

from __future__ import annotations

import re

from . import registry, textprep


_PATTERNS = {
    "wallclock": re.compile(
        r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
        r"|(?<!\w)(?:system_clock|steady_clock|high_resolution_clock)::now"
        r"|std::rand\s*\(|(?<![\w:.])rand\s*\(\s*\)"
        r"|(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0|&)"
        r"|gettimeofday\s*\(|clock_gettime\s*\("
    ),
    "env": re.compile(r"std::getenv\s*\(|(?<![\w:.>])getenv\s*\("),
    "hot-container": re.compile(r"std::unordered_(?:map|set)\b"),
    "hot-function": re.compile(r"std::function\b"),
    "naked-new": re.compile(
        r"(?<![\w:.<])new\b(?!\s*[(>])|(?<![\w:.])malloc\s*\("),
    "rng-discipline": re.compile(
        r"std::random_device\b|std::mt19937(?:_64)?\b"
        r"|std::default_random_engine\b|std::minstd_rand0?\b"
        r"|(?<![\w:.])srand\s*\("),
    "addr-order": re.compile(
        r"std::(?:multi)?(?:map|set)<\s*[\w:]+(?:<[^<>]*>)?\s*\*"),
}

# Multiline rules run against the whole stripped text (a call's first
# argument routinely lands on a continuation line).
_TIME_SINKS = r"(?:schedule_at|schedule_after|run_until|uniform_time|exponential_time)"
_TIME_UNIT_RE = re.compile(
    _TIME_SINKS + r"\s*\(\s*(0*[1-9][0-9']*)\s*[,)]")
_DANGLING_RE = re.compile(
    r"schedule_(?:at|after)\s*\((?:[^;{}]|\n){0,400}?\[\s*&", re.DOTALL)

_UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)<[^;{}()]*?>\s*\n?\s*(\w+)\s*(?:;|=|\{)",
    re.DOTALL,
)
_RANGE_FOR_RE = re.compile(r"for\s*\([^;()]*?:\s*(\w+)\s*\)")


def collect_unordered_names(stripped_by_path: dict[str, str]) -> set[str]:
    names: set[str] = set()
    for path, text in stripped_by_path.items():
        if not path.startswith("src/"):
            continue
        for m in _UNORDERED_DECL_RE.finditer(text):
            names.add(m.group(1))
    return names


def _line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def scan_file(path, raw, stripped, unordered_names, hot):
    """Yields Finding objects for one file.  `hot` is whether the file is
    in the annotation-driven hot set; `unordered_names` the cross-file set
    of identifiers declared as unordered containers in src/."""
    raw_lines = raw.splitlines()
    supp = registry.SuppressionIndex(path, raw_lines)
    stripped_lines = stripped.splitlines()

    def emit(rule, lineno):
        if supp.allowed(rule, lineno):
            return None
        snippet = (raw_lines[lineno - 1].strip()
                   if 0 < lineno <= len(raw_lines) else "")
        return registry.Finding(path, lineno, rule, snippet)

    for rid, pattern in _PATTERNS.items():
        if not registry.rule_applies(rid, path, hot):
            continue
        for lineno, line in enumerate(stripped_lines, start=1):
            if pattern.search(line):
                f = emit(rid, lineno)
                if f:
                    yield f

    if registry.rule_applies("unordered-iter", path, hot):
        for lineno, line in enumerate(stripped_lines, start=1):
            for m in _RANGE_FOR_RE.finditer(line):
                if m.group(1) in unordered_names:
                    f = emit("unordered-iter", lineno)
                    if f:
                        yield f

    if registry.rule_applies("time-unit", path, hot):
        for m in _TIME_UNIT_RE.finditer(stripped):
            f = emit("time-unit", _line_of(stripped, m.start()))
            if f:
                yield f

    if registry.rule_applies("dangling-capture", path, hot):
        for m in _DANGLING_RE.finditer(stripped):
            f = emit("dangling-capture", _line_of(stripped, m.start()))
            if f:
                yield f


class RegexEngine:
    """Scans a prepared corpus.  The corpus is always the whole tree (the
    unordered-name set and hot set are cross-file); `paths` restricts
    which files findings are reported for."""

    name = "regex"

    def __init__(self, raw_by_path: dict[str, str]):
        self.raw_by_path = raw_by_path
        self.stripped_by_path = {
            p: textprep.strip_comments_and_strings(t)
            for p, t in raw_by_path.items()
        }
        self.hot = textprep.hot_files(self.stripped_by_path)
        self.unordered_names = collect_unordered_names(self.stripped_by_path)

    def scan(self, paths=None) -> list[registry.Finding]:
        targets = self.raw_by_path if paths is None else [
            p for p in self.raw_by_path if p in set(paths)]
        findings = []
        for rel in targets:
            findings.extend(scan_file(
                rel, self.raw_by_path[rel], self.stripped_by_path[rel],
                self.unordered_names, rel in self.hot))
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return findings
