#!/usr/bin/env python3
"""Fixture self-tests for the bbsim-tidy static checks.

Each ``tests/lint/fixtures/*.cpp`` file is an annotated fixture:

  * an optional first-comment directive
    ``// bbsim-tidy-fixture: as-path=src/flow/foo.cpp`` places the fixture
    at a virtual repo-relative path (the checks scope and allowlist by
    path);
  * every line that must produce a diagnostic carries a trailing
    ``// CHECK: bbsim-check-name[, bbsim-other-check]`` comment;
  * a fixture with no CHECK comments asserts zero diagnostics.

The runner executes tools/tidy/bbsim_tidy.py over each fixture, parses the
emitted ``file:line:col: warning: ... [check]`` diagnostics, and diffs the
set of (line, check) pairs against the CHECK expectations. Exit status is
non-zero on any mismatch, which is how the ``lint.fixture.*`` ctests consume
this script.
"""

import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
CHECKER = os.path.join(REPO, "tools", "tidy", "bbsim_tidy.py")

DIRECTIVE = re.compile(r"bbsim-tidy-fixture:\s*as-path=(\S+)")
CHECK_RX = re.compile(r"//\s*CHECK:\s*([a-z0-9,\s-]+)")
DIAG_RX = re.compile(r"^(.*?):(\d+):(\d+):\s+warning:\s+.*\[([\w.-]+)\]\s*$")


def parse_fixture(path):
    """Return (as_path, expected) where expected is a set of (line, check)."""
    as_path = None
    expected = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if as_path is None:
                m = DIRECTIVE.search(line)
                if m:
                    as_path = m.group(1)
            m = CHECK_RX.search(line)
            if m:
                for name in m.group(1).split(","):
                    name = name.strip()
                    if name:
                        expected.add((lineno, name))
    return as_path or os.path.basename(path), expected


def parse_diagnostics(output):
    found = set()
    for line in output.splitlines():
        m = DIAG_RX.match(line)
        if m:
            found.add((int(m.group(2)), m.group(4)))
    return found


def run_checker(fixture, as_path):
    proc = subprocess.run(
        [sys.executable, CHECKER, "--as-path", as_path, fixture],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError("bbsim_tidy.py failed on %s:\n%s" % (fixture, proc.stderr))
    return parse_diagnostics(proc.stdout)


def describe(pairs):
    return ", ".join("line %d [%s]" % p for p in sorted(pairs)) or "(none)"


def run_one(fixture, verbose):
    as_path, expected = parse_fixture(fixture)
    found = run_checker(fixture, as_path)
    missing = expected - found
    surplus = found - expected
    if missing or surplus:
        print("FAIL %s (as %s)" % (os.path.basename(fixture), as_path))
        if missing:
            print("  expected but not emitted: " + describe(missing))
        if surplus:
            print("  emitted but not expected: " + describe(surplus))
        return False
    if verbose:
        print("ok   %s: %d diagnostic(s)"
              % (os.path.basename(fixture), len(expected)))
    return True


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fixtures", default=os.path.join(HERE, "fixtures"),
                    help="fixture directory (default: tests/lint/fixtures)")
    ap.add_argument("--only", action="append", default=[],
                    help="run only fixtures whose basename matches")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)

    fixtures = sorted(
        os.path.join(args.fixtures, f) for f in os.listdir(args.fixtures)
        if f.endswith(".cpp"))
    if args.only:
        fixtures = [f for f in fixtures
                    if any(pat in os.path.basename(f) for pat in args.only)]
    if not fixtures:
        print("no fixtures matched", file=sys.stderr)
        return 2

    failures = 0
    for fixture in fixtures:
        if not run_one(fixture, args.verbose):
            failures += 1
    total = len(fixtures)
    if failures:
        print("%d/%d fixture(s) failed" % (failures, total))
        return 1
    print("all %d fixture(s) passed" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
