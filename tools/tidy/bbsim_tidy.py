#!/usr/bin/env python3
"""bbsim-tidy: the bbsim domain lint checks.

A dependency-free lexical checker for the four ``bbsim-*`` checks, so that

  * the fixture self-tests under ``tests/lint/`` run under ctest on every
    machine, including containers without any Clang toolchain, and
  * the zero-findings gate over ``src/ tools/ bench/`` (``lint.tree_clean``)
    is enforced by the regular test suite.

Diagnostics use the clang-tidy format

    <file>:<line>:<col>: warning: <message> [bbsim-<check>]

and honour the ``// NOLINT(bbsim-...)`` / ``// NOLINTNEXTLINE(bbsim-...)``
escape hatches and per-check path allowlists.  The checker is lexical, not
semantic: it tokenizes enough C++ (comments, strings, raw strings, template
brackets) to track declared names, but it does not build an AST.  The checks
and their heuristics are documented in docs/static-analysis.md; fixtures in
tests/lint/fixtures/ pin their behaviour.

Checks:
  bbsim-unordered-iteration   range-for / .begin() walks over std::unordered_
                              containers (determinism hazard in report paths)
  bbsim-nondeterminism-source wall clocks, rand, random_device, getenv
                              outside the sanctioned profiler/bench files
  bbsim-raw-assert            raw assert()/abort() in src/ instead of
                              BBSIM_ASSERT / BBSIM_AUDIT_CHECK
  bbsim-float-equality        ==/!= between floating-point operands in
                              src/flow and src/batch scheduler code

Usage:
  bbsim_tidy.py [--as-path REL] file.cpp ...      # lint explicit files
  bbsim_tidy.py --root REPO src tools bench       # sweep directories
  bbsim_tidy.py --list-checks
  bbsim_tidy.py --checks bbsim-raw-assert,... ... # restrict the check set
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Check registry and per-check configuration.
# --------------------------------------------------------------------------

ALL_CHECKS = [
    "bbsim-unordered-iteration",
    "bbsim-nondeterminism-source",
    "bbsim-raw-assert",
    "bbsim-float-equality",
]

# Paths are matched as repo-relative POSIX paths (regex search, not match).
# unordered-iteration: the sorted-wrapper implementation must itself walk the
# unordered container once; it is the one sanctioned place.
UNORDERED_ALLOWED_PATHS = r"(^|/)src/util/sorted_view\.hpp$"

# nondeterminism-source: the wall-clock profiler is the only sanctioned
# nondeterministic *report* section; bench/ binaries measure host time by
# design (their gates compare hashes and same-runner ratios, never wall
# time); tests may use clocks for timeouts.
NONDET_ALLOWED_PATHS = r"(^|/)(src/trace/profiler\.(hpp|cpp)$|bench/|tests/)"

# raw-assert: only library code is gated; tools/ mains and bench/ harnesses
# may abort on CLI misuse.
RAW_ASSERT_SCOPE = r"(^|/)src/"

# float-equality: the epsilon-deadlock defect class (PR 7) lives in the
# solver and scheduler arithmetic.
FLOAT_EQ_SCOPE = r"(^|/)src/(flow|batch)/"
# Sentinel doubles that are only ever *assigned*, never computed: exact
# comparison against them is the intended idiom.
FLOAT_EQ_SENTINELS = {"kUnlimited", "kPostRun", "kNoEstimate"}

MESSAGES = {
    "bbsim-unordered-iteration": (
        "iteration order over '{what}' is unspecified and breaks report "
        "determinism; iterate util::sorted_keys()/sorted_items() instead"
    ),
    "bbsim-nondeterminism-source": (
        "'{what}' is a nondeterminism source; only the src/trace profiler "
        "and bench harnesses may read host state"
    ),
    "bbsim-raw-assert": (
        "raw '{what}' in library code; use BBSIM_ASSERT (hard invariant) or "
        "BBSIM_AUDIT_CHECK (recorded violation) from util/error.hpp"
    ),
    "bbsim-float-equality": (
        "exact floating-point {what} in scheduler/solver code; compare "
        "against an epsilon or a named sentinel"
    ),
}


class Diagnostic:
    __slots__ = ("path", "line", "col", "check", "message")

    def __init__(self, path, line, col, check, message):
        self.path = path
        self.line = line
        self.col = col
        self.check = check
        self.message = message

    def render(self):
        return "%s:%d:%d: warning: %s [%s]" % (
            self.path, self.line, self.col, self.message, self.check)


# --------------------------------------------------------------------------
# Lexing: blank out comments and string literals while preserving offsets,
# and record comment text per line for NOLINT handling.
# --------------------------------------------------------------------------

_RAW_OPEN = re.compile(r'R"([^()\\ \t\n]*)\(')


def sanitize(text):
    """Return (code, comments) where `code` is `text` with comments and
    string/char literal contents replaced by spaces (newlines preserved) and
    `comments` maps line number -> concatenated comment text on that line."""
    out = list(text)
    comments = {}
    i, n = 0, len(text)
    line = 1

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def note_comment(start, end):
        ln = text.count("\n", 0, start) + 1
        for part in text[start:end].split("\n"):
            comments[ln] = comments.get(ln, "") + part
            ln += 1

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                j = n if j < 0 else j
                note_comment(i, j)
                blank(i, j)
                i = j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n if j < 0 else j + 2
                note_comment(i, j)
                blank(i, j)
                i = j
                continue
        if c == "R" and text.startswith('R"', i):
            m = _RAW_OPEN.match(text, i)
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, m.end())
                j = n if j < 0 else j + len(close)
                blank(i, j)
                i = j
                continue
        if c == '"' or c == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == c or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            blank(i + 1, j - 1)
            i = j
            continue
        i += 1
    return "".join(out), comments


_NOLINT = re.compile(r"NOLINT(NEXTLINE)?(?:\(([^)]*)\))?")


def suppressed(comments, line, check):
    """True when a NOLINT / NOLINTNEXTLINE comment covers `check` on `line`."""
    for ln, same in ((line, True), (line - 1, False)):
        blob = comments.get(ln)
        if not blob:
            continue
        for m in _NOLINT.finditer(blob):
            nextline = m.group(1) is not None
            if nextline == same:
                continue  # NOLINT on the previous line does not carry over
            names = m.group(2)
            if names is None or check in [s.strip() for s in names.split(",")]:
                return True
    return False


def line_col(code, offset):
    line = code.count("\n", 0, offset) + 1
    last_nl = code.rfind("\n", 0, offset)
    return line, offset - last_nl


def match_balanced(code, start, open_ch, close_ch):
    """Offset just past the bracket closing `open_ch` at `start`, or -1."""
    depth = 0
    for k in range(start, len(code)):
        if code[k] == open_ch:
            depth += 1
        elif code[k] == close_ch:
            depth -= 1
            if depth == 0:
                return k + 1
    return -1


IDENT = r"[A-Za-z_]\w*"


# --------------------------------------------------------------------------
# bbsim-unordered-iteration
# --------------------------------------------------------------------------

_UNORDERED_DECL = re.compile(r"\b(?:std\s*::\s*)?unordered_(?:multi)?(?:map|set)\s*<")
_USING_ALIAS = re.compile(r"\busing\s+(" + IDENT + r")\s*=")


def _unordered_names(code):
    """Names declared (in this file) with an unordered container type, plus
    type aliases for unordered containers."""
    names, aliases = set(), set()
    for m in _UNORDERED_DECL.finditer(code):
        open_angle = code.find("<", m.start())
        end = match_balanced(code, open_angle, "<", ">")
        if end < 0:
            continue
        # `using Alias = std::unordered_map<...>;`
        line_start = code.rfind("\n", 0, m.start()) + 1
        am = _USING_ALIAS.search(code, line_start, m.start())
        if am:
            aliases.add(am.group(1))
            continue
        dm = re.match(r"\s*&?\s*(" + IDENT + r")\s*[;={(,)]", code[end:])
        if dm:
            names.add(dm.group(1))
    for alias in aliases:
        for m in re.finditer(r"\b" + alias + r"\s+(" + IDENT + r")\s*[;={(,]",
                             code):
            names.add(m.group(1))
    return names


def _normalize_range_expr(expr):
    expr = expr.strip()
    expr = re.sub(r"^\*+", "", expr)
    expr = re.sub(r"^this\s*->\s*", "", expr).strip()
    return expr


# Names declared with unordered types anywhere in the linted set: a member
# declared in foo.hpp is routinely iterated in foo.cpp, so --root sweeps
# collect declarations globally before flagging (single-file/fixture runs
# see only their own declarations).
GLOBAL_UNORDERED_NAMES = set()


def check_unordered_iteration(path, code, text):
    diags = []
    names = _unordered_names(code) | GLOBAL_UNORDERED_NAMES
    check = "bbsim-unordered-iteration"
    # Range-for whose range expression is a known unordered name.
    for m in re.finditer(r"\bfor\s*\(", code):
        open_paren = code.find("(", m.start())
        end = match_balanced(code, open_paren, "(", ")")
        if end < 0:
            continue
        body = code[open_paren + 1:end - 1]
        colon = -1
        depth = 0
        for k, ch in enumerate(body):
            if ch in "(<[":
                depth += 1
            elif ch in ")>]":
                depth -= 1
            elif ch == ":" and depth == 0:
                if k + 1 < len(body) and body[k + 1] == ":":
                    continue
                if k > 0 and body[k - 1] == ":":
                    continue
                colon = k
                break
        if colon < 0:
            continue
        expr = _normalize_range_expr(body[colon + 1:])
        if expr in names:
            line, col = line_col(code, m.start())
            diags.append(Diagnostic(path, line, col, check,
                                    MESSAGES[check].format(what=expr)))
    # Explicit iterator walks: name.begin() / name.cbegin().
    for name in names:
        for m in re.finditer(r"\b" + re.escape(name) + r"\s*\.\s*c?begin\s*\(",
                             code):
            line, col = line_col(code, m.start())
            diags.append(Diagnostic(path, line, col, check,
                                    MESSAGES[check].format(what=name)))
    return diags


# --------------------------------------------------------------------------
# bbsim-nondeterminism-source
# --------------------------------------------------------------------------

_CLOCK_ALIAS = re.compile(
    r"\busing\s+(" + IDENT + r")\s*=\s*(?:std\s*::\s*)?chrono\s*::\s*"
    r"(?:system|steady|high_resolution)_clock\b")

_NONDET_PATTERNS = [
    (re.compile(r"\b(?:std\s*::\s*)?(?:chrono\s*::\s*)?"
                r"(?:system_clock|steady_clock|high_resolution_clock)"
                r"\s*::\s*now\s*\("), "wall-clock ::now()"),
    (re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?s?rand\s*\("), "rand/srand"),
    (re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?time\s*\(\s*"
                r"(?:nullptr|NULL|0)\s*\)"), "time()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.>:])(?:std\s*::\s*)?getenv\s*\("), "getenv"),
]


def check_nondeterminism_source(path, code, text):
    check = "bbsim-nondeterminism-source"
    diags = []
    patterns = list(_NONDET_PATTERNS)
    for m in _CLOCK_ALIAS.finditer(code):
        patterns.append((re.compile(r"\b" + m.group(1) + r"\s*::\s*now\s*\("),
                         "wall-clock ::now()"))
    for rx, what in patterns:
        for m in rx.finditer(code):
            line, col = line_col(code, m.start())
            diags.append(Diagnostic(path, line, col, check,
                                    MESSAGES[check].format(what=what)))
    return diags


# --------------------------------------------------------------------------
# bbsim-raw-assert
# --------------------------------------------------------------------------

_ASSERT = re.compile(r"(?<![\w.>:])assert\s*\(")
_ABORT = re.compile(r"(?<![\w.>])(?:std\s*::\s*)?abort\s*\(\s*\)")


def check_raw_assert(path, code, text):
    check = "bbsim-raw-assert"
    diags = []
    for m in _ASSERT.finditer(code):
        line, col = line_col(code, m.start())
        diags.append(Diagnostic(path, line, col, check,
                                MESSAGES[check].format(what="assert()")))
    for m in _ABORT.finditer(code):
        # Qualified calls other than std::abort (e.g. FlowManager::abort)
        # are member functions, not the libc kill switch.
        before = code[:m.start()]
        if before.rstrip().endswith("::") and not m.group(0).startswith("std"):
            continue
        line, col = line_col(code, m.start())
        diags.append(Diagnostic(path, line, col, check,
                                MESSAGES[check].format(what="abort()")))
    return diags


# --------------------------------------------------------------------------
# bbsim-float-equality
# --------------------------------------------------------------------------

_FLOAT_DECL = re.compile(
    r"\b(?:long\s+double|double|float)\s+(" + IDENT + r")\s*[=;,)\]{]")
_FLOAT_LITERAL = re.compile(
    r"^(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+[eE][+-]?\d+|\d+\.)f?$")
_EQ_OP = re.compile(r"(?<![=!<>+\-*/%&|^])([=!]=)(?!=)")


def _float_names(code):
    names = set()
    for m in _FLOAT_DECL.finditer(code):
        names.add(m.group(1))
    return names


def _operand_left(code, pos):
    """Token text of the operand ending just before `pos`."""
    k = pos
    while k > 0 and code[k - 1] in " \t":
        k -= 1
    end = k
    depth = 0
    while k > 0:
        ch = code[k - 1]
        if ch in ")]":
            depth += 1
        elif ch in "([":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and not (ch.isalnum() or ch in "_.:->"):
            break
        k -= 1
    return code[k:end].strip()


def _operand_right(code, pos):
    k = pos
    while k < len(code) and code[k] in " \t":
        k += 1
    start = k
    depth = 0
    while k < len(code):
        ch = code[k]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and not (ch.isalnum() or ch in "_.:->"):
            break
        k += 1
    return code[start:k].strip()


def _trailing_ident(operand):
    m = re.search(r"(" + IDENT + r")\s*(?:\(\s*\))?$", operand)
    return m.group(1) if m else ""


# Zero-argument members that return iterators/sizes regardless of any
# same-named double elsewhere in the file (`queue_.end()` vs `double end`).
_NON_FLOAT_MEMBERS = {"begin", "end", "cbegin", "cend", "rbegin", "rend",
                      "size", "count", "find"}


def _is_floaty(operand, float_names):
    if not operand:
        return False
    if _FLOAT_LITERAL.match(operand):
        return True
    ident = _trailing_ident(operand)
    if operand.endswith(")") and ident in _NON_FLOAT_MEMBERS:
        return False
    return ident in float_names


def check_float_equality(path, code, text):
    check = "bbsim-float-equality"
    diags = []
    float_names = _float_names(code) | FLOAT_EQ_SENTINELS
    for m in _EQ_OP.finditer(code):
        lhs = _operand_left(code, m.start())
        rhs = _operand_right(code, m.end())
        if not (_is_floaty(lhs, float_names) or _is_floaty(rhs, float_names)):
            continue
        if (_trailing_ident(lhs) in FLOAT_EQ_SENTINELS
                or _trailing_ident(rhs) in FLOAT_EQ_SENTINELS):
            continue
        line, col = line_col(code, m.start())
        op = "==" if m.group(1) == "==" else "!="
        diags.append(Diagnostic(path, line, col, check,
                                MESSAGES[check].format(what="'" + op + "'")))
    return diags


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

CHECK_TABLE = [
    # (name, function, scope regex or None, allowlist regex or None)
    ("bbsim-unordered-iteration", check_unordered_iteration,
     None, UNORDERED_ALLOWED_PATHS),
    ("bbsim-nondeterminism-source", check_nondeterminism_source,
     None, NONDET_ALLOWED_PATHS),
    ("bbsim-raw-assert", check_raw_assert, RAW_ASSERT_SCOPE, None),
    ("bbsim-float-equality", check_float_equality, FLOAT_EQ_SCOPE, None),
]


def lint_file(real_path, rel_path, enabled):
    with open(real_path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    code, comments = sanitize(text)
    diags = []
    for name, fn, scope, allow in CHECK_TABLE:
        if name not in enabled:
            continue
        if scope and not re.search(scope, rel_path):
            continue
        if allow and re.search(allow, rel_path):
            continue
        for d in fn(rel_path, code, text):
            if not suppressed(comments, d.line, d.check):
                diags.append(d)
    diags.sort(key=lambda d: (d.line, d.col, d.check))
    return diags


def iter_sources(root, subdirs):
    exts = (".cpp", ".hpp", ".cc", ".h")
    for sub in subdirs:
        base = os.path.join(root, sub)
        if os.path.isfile(base):
            yield base, os.path.relpath(base, root).replace(os.sep, "/")
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(exts):
                    full = os.path.join(dirpath, fn)
                    yield full, os.path.relpath(full, root).replace(os.sep, "/")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files to lint, or subdirectories under --root")
    ap.add_argument("--root", help="repository root: lint the named "
                    "subdirectories, reporting repo-relative paths")
    ap.add_argument("--as-path", help="treat a single input file as if it "
                    "lived at this repo-relative path (fixture testing)")
    ap.add_argument("--checks", help="comma-separated subset of checks")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        for name in ALL_CHECKS:
            print(name)
        return 0

    enabled = set(ALL_CHECKS)
    if args.checks:
        enabled = set(s.strip() for s in args.checks.split(",") if s.strip())
        unknown = enabled - set(ALL_CHECKS)
        if unknown:
            sys.stderr.write("unknown checks: %s\n" % ", ".join(sorted(unknown)))
            return 2

    targets = []
    if args.root:
        targets = list(iter_sources(args.root, args.paths or ["src"]))
    else:
        for p in args.paths:
            rel = args.as_path if args.as_path else p.replace(os.sep, "/")
            targets.append((p, rel))
    if not targets:
        sys.stderr.write("no input files\n")
        return 2

    if args.root and "bbsim-unordered-iteration" in enabled:
        for real, rel in targets:
            with open(real, "r", encoding="utf-8", errors="replace") as f:
                code, _ = sanitize(f.read())
            GLOBAL_UNORDERED_NAMES.update(_unordered_names(code))

    count = 0
    for real, rel in targets:
        for d in lint_file(real, rel, enabled):
            print(d.render())
            count += 1
    if count:
        sys.stderr.write("bbsim-tidy: %d finding(s)\n" % count)
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
