#!/usr/bin/env python3
"""Lint the operator docs against the binaries they document.

Two checks, both sides of the drift:

1. Forward: every ``--flag`` token mentioned in the docs must be accepted
   by at least one built binary or repository script (its ``--help``
   output), or appear on the small build-tooling allowlist
   (ctest/cmake/gtest flags the build instructions legitimately use).  A
   renamed or deleted CLI option whose doc mention was forgotten fails
   here.

2. Reverse: every option ``dynprof_cli --help`` advertises must be
   mentioned in README.md (the operator entry point documents the whole
   surface of the paper's tool).  A new CLI option that never made it into
   the README fails here.

Run from the repository root after building::

    python3 tools/docs_lint.py [--build-dir build]

Exits non-zero on any drift, printing one line per finding.  CI runs this
in the docs-lint job.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import stat
import subprocess
import sys

# Docs whose --flag mentions are checked (forward direction).
DOC_FILES = ["README.md", "EXPERIMENTS.md", "docs/TRACE_REPLAY.md"]

# Directories whose binaries define the set of real flags.
BINARY_DIRS = ["examples", "bench"]

# Python scripts whose flags count too (argparse prints --help without
# building anything).
SCRIPTS = ["perfbench/run.py"]

# Flags the docs may mention that belong to build tooling, not our
# binaries (ctest / cmake / gtest invocations in the build instructions).
ALLOWED_TOOLING = {
    "--help",  # every CliParser binary accepts it without listing it
    "--build",
    "--test-dir",
    "--output-on-failure",
    "--target",
    "--gtest_filter",
}

# A --flag token: starts a word (not preceded by a letter, digit or
# another dash, so table rules `|---|` and spelled-out ranges don't match).
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9_-]*")


def doc_flags(path: pathlib.Path) -> dict[str, list[int]]:
    """Map each --flag mentioned in `path` to the lines mentioning it."""
    flags: dict[str, list[int]] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for match in FLAG_RE.findall(line):
            flags.setdefault(match, []).append(lineno)
    return flags


def help_flags(command: list[str]) -> set[str]:
    """The --flags `command --help` advertises (empty set if it won't talk)."""
    try:
        proc = subprocess.run(
            command + ["--help"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return set()
    return set(FLAG_RE.findall(proc.stdout + proc.stderr))


def executables(build_dir: pathlib.Path) -> list[pathlib.Path]:
    found = []
    for sub in BINARY_DIRS:
        directory = build_dir / sub
        if not directory.is_dir():
            continue
        for entry in sorted(directory.iterdir()):
            if entry.is_file() and entry.stat().st_mode & stat.S_IXUSR:
                found.append(entry)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="cmake build directory holding the binaries")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    build_dir = root / args.build_dir

    binaries = executables(build_dir)
    if not binaries:
        print(f"docs_lint: no binaries under {build_dir}/examples or "
              f"{build_dir}/bench -- build first", file=sys.stderr)
        return 2

    known = set(ALLOWED_TOOLING)
    per_binary: dict[str, set[str]] = {}
    for binary in binaries:
        flags = help_flags([str(binary)])
        per_binary[binary.name] = flags
        known |= flags
    for script in SCRIPTS:
        flags = help_flags([sys.executable, str(root / script)])
        if not flags:
            print(f"docs_lint: {script} --help produced no flags",
                  file=sys.stderr)
            return 2
        known |= flags

    dynprof_cli = per_binary.get("dynprof_cli", set())
    if not dynprof_cli:
        print("docs_lint: dynprof_cli --help produced no flags -- build "
              "examples first", file=sys.stderr)
        return 2

    failures = 0

    # Forward: doc mention -> real flag.
    for doc in DOC_FILES:
        path = root / doc
        if not path.is_file():
            print(f"docs_lint: FAIL {doc}: file missing")
            failures += 1
            continue
        for flag, lines in sorted(doc_flags(path).items()):
            if flag in known:
                continue
            where = ", ".join(str(n) for n in lines[:5])
            print(f"docs_lint: FAIL {doc}:{where}: `{flag}` is not accepted "
                  f"by any built binary or script")
            failures += 1

    # Reverse: dynprof_cli flag -> README mention.
    readme_mentions = set(doc_flags(root / "README.md"))
    for flag in sorted(dynprof_cli):
        if flag == "--help":
            continue
        if flag not in readme_mentions:
            print(f"docs_lint: FAIL README.md: dynprof_cli option `{flag}` "
                  f"is undocumented")
            failures += 1

    if failures:
        print(f"docs_lint: {failures} finding(s)")
        return 1
    doc_count = sum(1 for d in DOC_FILES if (root / d).is_file())
    print(f"docs_lint: ok -- {doc_count} doc(s) checked against "
          f"{len(binaries)} binaries and {len(SCRIPTS)} script(s), "
          f"{len(known)} known flags; all "
          f"{len(dynprof_cli) - 1} dynprof_cli options documented in README")
    return 0


if __name__ == "__main__":
    sys.exit(main())
