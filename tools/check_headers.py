#!/usr/bin/env python3
"""Header self-sufficiency gate: every public header must compile standalone.

For each ``src/**/*.hpp`` this script synthesizes a one-line translation
unit ``#include "<header>"`` and compiles it with ``-fsyntax-only`` using
the include paths, defines and standard taken from the build's
``compile_commands.json`` (pass the build directory with ``-p``; configure
with ``-DCMAKE_EXPORT_COMPILE_COMMANDS=ON``, which the top-level
CMakeLists now sets). A header that only compiles because every current
includer happens to pull its dependencies in first is one refactor away
from breaking; this pins the property statically.

Exit status: 0 when every header compiles, 1 otherwise (each failure is
reported with the compiler's own diagnostics). Wired into ctest as
``lint.headers`` and into the CI clang-tidy job.

Usage:
  check_headers.py -p build [--compiler g++] [--root .] [src ...]
"""

import argparse
import concurrent.futures
import json
import os
import shlex
import subprocess
import sys
import tempfile

# Flags lifted from a reference compile command that do not apply to a
# syntax-only TU (output control, dependency files).
_DROP_WITH_ARG = {"-o", "-c", "-MF", "-MT", "-MQ", "--output"}
_DROP = {"-MD", "-MMD", "-MP", "--coverage"}


def reference_flags(build_dir, root):
    """Include/define/standard flags from the first src/ entry of the
    compile database, or conservative defaults when there is none."""
    db_path = os.path.join(build_dir, "compile_commands.json") if build_dir else None
    if db_path and os.path.exists(db_path):
        with open(db_path, "r", encoding="utf-8") as f:
            db = json.load(f)
        for entry in sorted(db, key=lambda e: e.get("file", "")):
            path = entry.get("file", "")
            if "/src/" not in path.replace(os.sep, "/"):
                continue
            args = entry.get("arguments")
            if not args:
                args = shlex.split(entry.get("command", ""))
            flags = []
            skip = False
            for arg in args[1:]:  # drop the compiler itself
                if skip:
                    skip = False
                    continue
                if arg in _DROP_WITH_ARG:
                    skip = True
                    continue
                if arg in _DROP or arg.endswith(".cpp") or arg.endswith(".o"):
                    continue
                flags.append(arg)
            return flags, entry.get("directory", build_dir)
    # Fallback: enough for this repo's layout.
    return ["-std=c++20", "-I" + os.path.join(root, "src")], root


def headers_under(root, subdirs):
    out = []
    for sub in subdirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(".hpp"):
                    out.append(os.path.join(dirpath, fn))
    return out


def check_header(header, flags, workdir, compiler, root):
    rel = os.path.relpath(header, os.path.join(root, "src"))
    with tempfile.NamedTemporaryFile(
            "w", suffix=".cpp", prefix="hdr_", dir=None, delete=False) as tu:
        tu.write('#include "%s"\n' % rel.replace(os.sep, "/"))
        tu_path = tu.name
    try:
        cmd = [compiler] + flags + ["-fsyntax-only", "-x", "c++", tu_path]
        proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        return proc.returncode == 0, proc.stdout
    finally:
        os.unlink(tu_path)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("subdirs", nargs="*", default=None,
                    help="directories under --root to scan (default: src)")
    ap.add_argument("-p", "--build-dir",
                    help="build directory containing compile_commands.json")
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: this script's repo)")
    ap.add_argument("--compiler", default=os.environ.get("CXX", "c++"))
    ap.add_argument("-j", "--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)

    flags, workdir = reference_flags(args.build_dir, args.root)
    # The headers include each other root-relative ("util/error.hpp"), so
    # <root>/src must be on the path even when --root overrides the repo the
    # compile database was built for.
    flags = flags + ["-I" + os.path.join(args.root, "src")]
    headers = headers_under(args.root, args.subdirs or ["src"])
    if not headers:
        print("no headers found", file=sys.stderr)
        return 2

    failures = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = pool.map(
            lambda h: check_header(h, flags, workdir, args.compiler,
                                   args.root), headers)
        for header, (ok, output) in zip(headers, results):
            rel = os.path.relpath(header, args.root)
            if not ok:
                failures += 1
                print("FAIL %s" % rel)
                sys.stdout.write(output)
            elif args.verbose:
                print("ok   %s" % rel)

    if failures:
        print("%d/%d header(s) are not self-sufficient"
              % (failures, len(headers)))
        return 1
    print("all %d header(s) compile standalone" % len(headers))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
