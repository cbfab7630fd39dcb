"""AST engine: the type- and symbol-resolved rules, on libclang.

Driven by the compile_commands.json CMake already exports, via clang's
Python bindings (clang.cindex).  Where the regex engine pattern-matches
stripped text, this engine sees declarations, canonical types, storage
classes, lambda captures, and the [[clang::annotate]] attributes behind
GRID_HOT / GRID_SHARD_LOCAL — so aliases, `auto`, member expressions, and
cross-TU state no longer evade the determinism rules.

Six rules ride on the AST (ids shared with the registry):

  shard-safety      non-const static-storage state (globals, static
                    data members, function-local statics, thread_locals)
                    in src/ without a GRID_SHARD_LOCAL annotation.
                    Resolved cross-TU: only definitions fire, and a
                    header definition fires once however many TUs
                    include it.
  dangling-capture  lambdas passed to schedule_at / schedule_after that
                    capture by reference-default or capture a local /
                    parameter of the enclosing function by reference.
  unordered-iter    range-for over, or <algorithm> accumulation across,
                    anything whose *canonical* type is an unordered
                    container.
  time-unit         bare nonzero integer literals bound to parameters
                    whose declared type spells sim::Time.
  rng-discipline    std <random> engines / random_device / srand, and
                    static-storage sim::Rng objects (an RNG shared
                    across trials serializes their draws).
  addr-order        std::map / std::set keyed on pointers with the
                    default comparator, and std::sort over pointers
                    (default comparator or a comparator that compares
                    pointer operands).

The engine is optional by construction: `load_cindex()` returns None when
the bindings or the shared library are absent, and callers fall back to
the regex engine.  Set GRIDLINT_LIBCLANG to a libclang .so path to force
a specific library.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import sys

from . import registry

_ANNOTATION_SHARD_LOCAL = "grid::shard_local"

_SCHEDULE_CALLEES = {"schedule_at", "schedule_after"}
_ACCUMULATE_CALLEES = {
    "accumulate", "reduce", "transform_reduce", "for_each",
    "count_if", "all_of", "any_of", "none_of",
}
_SORT_CALLEES = {"sort", "stable_sort", "partial_sort", "nth_element"}
_UNORDERED_TYPE_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)<")
_RANDOM_TYPE_RE = re.compile(
    r"\brandom_device\b|\bmersenne_twister_engine\b"
    r"|\blinear_congruential_engine\b|\bsubtract_with_carry_engine\b")
_TIME_PARAM_RE = re.compile(r"(?:^|::)Time$")
_INT_LITERAL_RE = re.compile(r"^0*[1-9][0-9']*(?:[uUlL]*)$")


def load_cindex():
    """Returns the clang.cindex module with a working libclang, or None."""
    try:
        from clang import cindex
    except ImportError:
        return None
    forced = os.environ.get("GRIDLINT_LIBCLANG")
    candidates = [forced] if forced else [None]
    if not forced:
        for name in ("libclang.so", "libclang-14.so.1", "libclang.so.14",
                     "libclang-14.so", "libclang.so.1"):
            candidates.append(name)
            for prefix in ("/usr/lib/llvm-14/lib", "/usr/lib/llvm-15/lib",
                           "/usr/lib/x86_64-linux-gnu"):
                candidates.append(os.path.join(prefix, name))
    for cand in candidates:
        try:
            if cand is not None:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(cand)
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    return None


def _clean_args(entry) -> list[str]:
    """Compiler argv from a compile_commands entry, minus the compiler,
    the source file, and output options."""
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry["command"])
    out, skip = [], True  # skip the compiler itself
    it = iter(argv)
    for a in it:
        if skip:
            skip = False
            continue
        if a == "-o":
            next(it, None)
            continue
        if a in ("-c", entry["file"]):
            continue
        if a.endswith(entry["file"]):
            continue
        out.append(a)
    return out


class AstEngine:
    name = "ast"

    def __init__(self, cindex, root: str, build_dir: str | None = None):
        self.cx = cindex
        self.root = os.path.realpath(root)
        self.build_dir = build_dir or os.path.join(root, "build")
        self.index = cindex.Index.create()
        self._relpath_cache: dict[str, str | None] = {}
        self._suppress_cache: dict[str, registry.SuppressionIndex] = {}
        self._pretend: dict[str, str] = {}
        self.parse_failures: list[str] = []
        # The walk recurses per AST node; deep expression chains in
        # template-heavy TUs can exceed the default interpreter limit.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

    # ---- corpus ----------------------------------------------------------

    def compile_entries(self):
        db = os.path.join(self.build_dir, "compile_commands.json")
        if not os.path.isfile(db):
            raise FileNotFoundError(
                f"{db} not found — configure cmake first "
                "(CMAKE_EXPORT_COMPILE_COMMANDS is on by default)")
        with open(db, encoding="utf-8") as f:
            entries = json.load(f)
        picked = {}
        for e in entries:
            src = os.path.realpath(
                os.path.join(e.get("directory", "."), e["file"]))
            rel = self._rel(src)
            if rel is None or not rel.startswith(("src/", "bench/",
                                                  "examples/")):
                continue
            picked.setdefault(src, e)
        return picked

    def scan(self, paths=None) -> list[registry.Finding]:
        findings: dict[tuple, registry.Finding] = {}
        entries = self.compile_entries()
        total = 0
        for src, entry in sorted(entries.items()):
            total += 1
            try:
                tu = self.index.parse(src, args=_clean_args(entry))
            except Exception as exc:  # TranslationUnitLoadError etc.
                self.parse_failures.append(f"{entry['file']}: {exc}")
                continue
            if self._fatal(tu):
                self.parse_failures.append(
                    f"{entry['file']}: fatal parse diagnostics")
                continue
            for f in self._scan_tu(tu):
                findings.setdefault(f.key(), f)
        if total and len(self.parse_failures) * 5 > total:
            raise RuntimeError(
                "AST engine could not parse >20% of the corpus: "
                + "; ".join(self.parse_failures[:5]))
        out = list(findings.values())
        if paths is not None:
            keep = set(paths)
            out = [f for f in out if f.path in keep]
        out.sort(key=lambda f: (f.path, f.line, f.rule))
        return out

    def scan_single(self, file_path: str, pretend_path: str,
                    extra_args=None) -> list[registry.Finding]:
        """Parses one standalone file (fixtures), reporting findings
        located in it under `pretend_path`."""
        args = ["-x", "c++", "-std=c++20",
                "-I", os.path.join(self.root, "src")]
        if extra_args:
            args.extend(extra_args)
        real = os.path.realpath(file_path)
        self._pretend[real] = pretend_path
        try:
            tu = self.index.parse(file_path, args=args)
            if self._fatal(tu):
                raise RuntimeError(
                    f"fixture {file_path} has fatal parse diagnostics: "
                    + "; ".join(str(d) for d in tu.diagnostics
                                if d.severity >= 4))
            found = {}
            for f in self._scan_tu(tu, only_path=pretend_path):
                found.setdefault(f.key(), f)
            return sorted(found.values(),
                          key=lambda f: (f.path, f.line, f.rule))
        finally:
            del self._pretend[real]
            self._relpath_cache.clear()
            self._suppress_cache.pop(pretend_path, None)

    # ---- plumbing --------------------------------------------------------

    def _fatal(self, tu) -> bool:
        return any(d.severity >= 4 for d in tu.diagnostics)  # Fatal

    def _rel(self, path: str):
        hit = self._relpath_cache.get(path, "?")
        if hit != "?":
            return hit
        real = os.path.realpath(path)
        rel = None
        if real in self._pretend:
            rel = self._pretend[real]
        elif real.startswith(self.root + os.sep):
            rel = os.path.relpath(real, self.root).replace(os.sep, "/")
        self._relpath_cache[path] = rel
        return rel

    def _cursor_path(self, cursor):
        f = cursor.location.file
        return None if f is None else self._rel(f.name)

    def _suppressor(self, path: str) -> registry.SuppressionIndex:
        idx = self._suppress_cache.get(path)
        if idx is None:
            real = path
            for k, v in self._pretend.items():
                if v == path:
                    real = k
            full = (real if os.path.isabs(real)
                    else os.path.join(self.root, real))
            try:
                with open(full, encoding="utf-8") as f:
                    lines = f.read().splitlines()
            except OSError:
                lines = []
            idx = registry.SuppressionIndex(path, lines)
            self._suppress_cache[path] = idx
        return idx

    def _emit(self, findings, cursor, rule, detail=""):
        path = self._cursor_path(cursor)
        if path is None:
            return
        if not registry.rule_applies(rule, path, hot=True):
            return
        line = cursor.location.line
        if self._suppressor(path).allowed(rule, line):
            return
        msg = detail or cursor.spelling
        findings.append(registry.Finding(path, line, rule, msg))

    # ---- traversal -------------------------------------------------------

    def _scan_tu(self, tu, only_path=None):
        cx = self.cx
        K = cx.CursorKind
        findings: list[registry.Finding] = []
        func_kinds = (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                      K.DESTRUCTOR, K.FUNCTION_TEMPLATE, K.LAMBDA_EXPR)
        locals_cache: dict = {}

        def in_scope(cursor):
            path = self._cursor_path(cursor)
            if path is None:
                return False
            if only_path is not None:
                return path == only_path
            return True

        def walk(cursor, func_stack):
            for child in cursor.get_children():
                # Prune whole subtrees that cannot contain findings:
                # lexical nesting means a node located in a system header
                # (or, in single-fixture mode, any other file) only has
                # descendants in that same out-of-scope file.
                f = child.location.file
                if f is not None:
                    rel = self._rel(f.name)
                    if rel is None:
                        continue
                    if only_path is not None and rel != only_path:
                        continue
                k = child.kind
                pushed = False
                if k in func_kinds:
                    func_stack.append(child)
                    pushed = True
                if in_scope(child):
                    try:
                        self._visit(child, func_stack, findings,
                                    locals_cache)
                    except Exception as exc:
                        print(f"gridlint: ast visitor error at "
                              f"{self._cursor_path(child)}:"
                              f"{child.location.line}: {exc}",
                              file=sys.stderr)
                walk(child, func_stack)
                if pushed:
                    func_stack.pop()

        walk(tu.cursor, [])
        return findings

    # ---- rule dispatch ---------------------------------------------------

    def _visit(self, cursor, func_stack, findings, locals_cache):
        K = self.cx.CursorKind
        k = cursor.kind
        if k == K.VAR_DECL:
            self._check_shard_safety(cursor, func_stack, findings)
            self._check_rng_decl(cursor, findings)
            self._check_pointer_keyed(cursor, findings)
        elif k == K.FIELD_DECL:
            self._check_rng_decl(cursor, findings)
            self._check_pointer_keyed(cursor, findings)
        elif k == K.CXX_FOR_RANGE_STMT:
            self._check_range_for(cursor, findings)
        elif k == K.CALL_EXPR:
            name = cursor.spelling
            if name in _SCHEDULE_CALLEES:
                self._check_dangling_capture(cursor, func_stack, findings,
                                             locals_cache)
                self._check_time_unit(cursor, findings)
            elif name in _ACCUMULATE_CALLEES:
                self._check_accumulation(cursor, findings)
            elif name in _SORT_CALLEES:
                self._check_sort(cursor, findings)
            elif name == "srand":
                self._emit(findings, cursor, "rng-discipline",
                           "srand() seeds global state")
            else:
                self._check_time_unit(cursor, findings)

    # ---- helpers ---------------------------------------------------------

    def _has_annotation(self, cursor, text) -> bool:
        K = self.cx.CursorKind
        return any(ch.kind == K.ANNOTATE_ATTR and ch.spelling == text
                   for ch in cursor.get_children())

    def _decl_tokens(self, cursor, limit=24):
        toks = []
        for t in cursor.get_tokens():
            toks.append(t.spelling)
            if len(toks) >= limit or t.spelling == cursor.spelling:
                break
        return toks

    def _unwrap(self, expr):
        K = self.cx.CursorKind
        while expr is not None and expr.kind in (K.UNEXPOSED_EXPR,
                                                 K.PAREN_EXPR):
            children = list(expr.get_children())
            if len(children) != 1:
                break
            expr = children[0]
        return expr

    def _canonical(self, ctype) -> str:
        try:
            return ctype.get_canonical().spelling
        except Exception:
            return ""

    # ---- shard-safety ----------------------------------------------------

    def _check_shard_safety(self, cursor, func_stack, findings):
        K = self.cx.CursorKind
        SC = self.cx.StorageClass
        path = self._cursor_path(cursor)
        if path is None or not path.startswith("src/"):
            return
        if not cursor.is_definition():
            return
        parent = cursor.semantic_parent
        pk = parent.kind if parent is not None else None
        at_namespace = pk in (K.TRANSLATION_UNIT, K.NAMESPACE)
        at_class = pk in (K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE)
        tokens = self._decl_tokens(cursor)
        is_thread_local = "thread_local" in tokens
        in_function = bool(func_stack) and not (at_namespace or at_class)
        static_local = in_function and (
            cursor.storage_class == SC.STATIC or is_thread_local)
        if not (at_namespace or at_class or static_local):
            return
        ctype = cursor.type.get_canonical()
        if ctype.is_const_qualified():
            return
        if "constexpr" in tokens:
            return
        if self._has_annotation(cursor, _ANNOTATION_SHARD_LOCAL):
            return
        storage = ("thread_local" if is_thread_local
                   else "static" if static_local or at_class
                   else "global")
        self._emit(findings, cursor, "shard-safety",
                   f"{storage} mutable state '{cursor.spelling}'")

    # ---- rng-discipline --------------------------------------------------

    def _check_rng_decl(self, cursor, findings):
        canon = self._canonical(cursor.type)
        if _RANDOM_TYPE_RE.search(canon):
            self._emit(findings, cursor, "rng-discipline",
                       f"'{cursor.spelling}' uses std <random> machinery")
            return
        if "grid::sim::Rng" not in canon:
            return
        K = self.cx.CursorKind
        SC = self.cx.StorageClass
        parent = cursor.semantic_parent
        pk = parent.kind if parent is not None else None
        if (pk in (K.TRANSLATION_UNIT, K.NAMESPACE)
                or cursor.storage_class == SC.STATIC
                or "thread_local" in self._decl_tokens(cursor)):
            self._emit(findings, cursor, "rng-discipline",
                       f"static-storage RNG '{cursor.spelling}' would be "
                       "shared across trials")

    # ---- addr-order ------------------------------------------------------

    def _check_pointer_keyed(self, cursor, findings):
        canon = self._canonical(cursor.type)
        m = re.search(r"std::(?:multi)?(?:map|set)<([^<>,]*\*)\s*,", canon)
        if m and f"std::less<{m.group(1).strip()}" in canon.replace("  ", " "):
            self._emit(findings, cursor, "addr-order",
                       f"'{cursor.spelling}' keys std::map/set on a "
                       "pointer with the default comparator")

    def _check_sort(self, cursor, findings):
        TK = self.cx.TypeKind
        args = list(cursor.get_arguments())
        if len(args) < 2:
            return
        first_canon = self._canonical(args[0].type)
        pointer_values = bool(re.search(r"\*\s*\*", first_canon))
        if len(args) == 2:
            if pointer_values:
                self._emit(findings, cursor, "addr-order",
                           "sorting pointers with the default comparator")
            return
        comparator = self._unwrap(args[-1])
        if comparator is None:
            return
        K = self.cx.CursorKind
        lambdas = [c for c in self._descendants(comparator)
                   if c.kind == K.LAMBDA_EXPR]
        scan = lambdas[0] if lambdas else comparator
        for node in self._descendants(scan):
            if node.kind != K.BINARY_OPERATOR:
                continue
            kids = list(node.get_children())
            if len(kids) != 2:
                continue
            if not all(kid.type.get_canonical().kind == TK.POINTER
                       for kid in kids):
                continue
            toks = {t.spelling for t in node.get_tokens()}
            if toks & {"<", ">", "<=", ">="}:
                self._emit(findings, node, "addr-order",
                           "comparator orders by pointer value")
                return

    def _descendants(self, cursor):
        stack = list(cursor.get_children())
        while stack:
            c = stack.pop()
            yield c
            stack.extend(c.get_children())

    # ---- unordered-iter --------------------------------------------------

    def _is_unordered(self, ctype) -> bool:
        return bool(_UNORDERED_TYPE_RE.search(self._canonical(ctype)))

    def _check_range_for(self, cursor, findings):
        range_expr = next((ch for ch in cursor.get_children()
                           if ch.kind.is_expression()), None)
        if range_expr is not None and self._is_unordered(range_expr.type):
            self._emit(findings, cursor, "unordered-iter",
                       "range-for over an unordered container")

    def _check_accumulation(self, cursor, findings):
        K = self.cx.CursorKind
        for arg in cursor.get_arguments():
            for node in self._descendants(arg):
                if node.kind in (K.DECL_REF_EXPR, K.MEMBER_REF_EXPR) \
                        and self._is_unordered(node.type):
                    self._emit(findings, cursor, "unordered-iter",
                               "accumulation across an unordered container")
                    return

    # ---- dangling-capture ------------------------------------------------

    def _function_locals(self, func, locals_cache) -> set:
        key = func.hash
        hit = locals_cache.get(key)
        if hit is not None:
            return hit
        K = self.cx.CursorKind
        names = {c.spelling for c in self._descendants(func)
                 if c.kind in (K.VAR_DECL, K.PARM_DECL) and c.spelling}
        names.update(c.spelling for c in func.get_children()
                     if c.kind == K.PARM_DECL)
        locals_cache[key] = names
        return names

    def _lambda_captures(self, lam):
        """Yields capture-list entries, parsed from the introducer tokens
        (libclang does not expose the capture list directly)."""
        toks = []
        depth = 0
        started = False
        for t in lam.get_tokens():
            s = t.spelling
            if not started:
                if s == "[":
                    started = True
                    depth = 1
                continue
            if s == "[":
                depth += 1
            elif s == "]":
                depth -= 1
                if depth == 0:
                    break
            toks.append(s)
        entry: list[str] = []
        for s in toks:
            if s == "," :
                if entry:
                    yield entry
                entry = []
            else:
                entry.append(s)
        if entry:
            yield entry

    def _check_dangling_capture(self, cursor, func_stack, findings,
                                locals_cache):
        K = self.cx.CursorKind
        lambdas = []
        for arg in cursor.get_arguments():
            for node in self._descendants(self._unwrap(arg) or arg):
                if node.kind == K.LAMBDA_EXPR:
                    lambdas.append(node)
            node = self._unwrap(arg)
            if node is not None and node.kind == K.LAMBDA_EXPR:
                lambdas.append(node)
        if not lambdas:
            return
        enclosing = None
        for f in reversed(func_stack):
            if f.kind != K.LAMBDA_EXPR:
                enclosing = f
                break
        local_names = (self._function_locals(enclosing, locals_cache)
                       if enclosing is not None else set())
        for lam in lambdas:
            for entry in self._lambda_captures(lam):
                if entry == ["&"]:
                    self._emit(findings, lam, "dangling-capture",
                               "capture-default [&] in a deferred callback")
                    return
                if entry[0] == "&" and len(entry) >= 2:
                    name = entry[1]
                    if name == "this":
                        continue
                    if name in local_names:
                        self._emit(
                            findings, lam, "dangling-capture",
                            f"captures local '{name}' by reference in a "
                            "deferred callback")
                        return

    # ---- time-unit -------------------------------------------------------

    def _check_time_unit(self, cursor, findings):
        """Bare nonzero integer literal bound to a parameter whose declared
        type spells sim::Time.  Zero is unit-free; anything built from the
        sim::k* constants arrives as an arithmetic expression, not a bare
        INTEGER_LITERAL."""
        K = self.cx.CursorKind
        callee = cursor.referenced
        if callee is None:
            return
        try:
            params = [c for c in callee.get_children()
                      if c.kind == K.PARM_DECL]
        except Exception:
            return
        if not params:
            return
        for arg, param in zip(cursor.get_arguments(), params):
            spelled = param.type.spelling
            if not _TIME_PARAM_RE.search(spelled):
                continue
            node = self._unwrap(arg)
            if node is None or node.kind != K.INTEGER_LITERAL:
                continue
            tok = next(iter(node.get_tokens()), None)
            if tok is None or not _INT_LITERAL_RE.match(tok.spelling):
                continue
            self._emit(findings, node, "time-unit",
                       f"bare literal {tok.spelling} bound to {spelled} "
                       f"parameter '{param.spelling}' — multiply by a "
                       "sim::k* unit constant")
