#!/usr/bin/env python3
"""Failpoint catalog check: the documented sites are exactly the coded ones.

Collects two sets of failpoint site names and fails unless they are equal:

  * the string literals passed to the USI_FAILPOINT and USI_FAILPOINT_FIRED
    macros in the C++ sources under src/ (comments are ignored, so the
    usage examples in failpoint.hpp do not count);
  * the backticked names in the first column of the failpoint table in
    docs/ARCHITECTURE.md (the table whose header row starts "| Site |";
    one row may list several sites separated by " / ").

`usi_inspect failpoints` cannot serve as the reference: it lists only the
sites its warm-up pass reaches. Runs as the `failpoint_catalog_check` CTest
entry (label "docs"), so a site added, renamed or removed in one place but
not the other fails the build.

Usage: check_failpoints.py [--root DIR]
"""

import argparse
import pathlib
import re
import sys

SITE_RE = re.compile(r"\bUSI_FAILPOINT(?:_FIRED)?\(\s*\"([^\"]+)\"")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
TABLE_HEADER_RE = re.compile(r"^\|\s*Site\s*\|")
DOC_NAME_RE = re.compile(r"`([^`]+)`")


def strip_comments(source: str) -> str:
    """Drops // line comments and /* */ block comments (sites never sit in
    a string literal that contains either marker)."""
    source = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"),
                    source, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", source)


def coded_sites(src: pathlib.Path) -> dict:
    """Site name -> first 'file:line' that names it."""
    sites = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        text = strip_comments(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(text.splitlines(), start=1):
            for match in SITE_RE.finditer(line):
                sites.setdefault(match.group(1), f"{path}:{lineno}")
    return sites


def documented_sites(doc: pathlib.Path) -> dict:
    """Site name -> 'file:line' of its table row. Empty if no table."""
    sites = {}
    in_table = False
    lines = doc.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not in_table:
            in_table = bool(TABLE_HEADER_RE.match(line))
            continue
        if not line.startswith("|"):
            break
        first_cell = line.split("|")[1]
        if set(first_cell.strip()) <= set("-: "):
            continue  # The |---|---| separator row.
        for match in DOC_NAME_RE.finditer(first_cell):
            sites.setdefault(match.group(1), f"{doc}:{lineno}")
    return sites


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()

    root = pathlib.Path(args.root)
    doc = root / "docs" / "ARCHITECTURE.md"
    coded = coded_sites(root / "src")
    documented = documented_sites(doc)
    if not coded:
        print(f"error: no USI_FAILPOINT sites found under {root / 'src'}")
        return 1
    if not documented:
        print(f"error: no failpoint table ('| Site |' header) in {doc}")
        return 1

    errors = 0
    for name in sorted(coded.keys() - documented.keys()):
        print(f"error: {coded[name]}: site '{name}' is not in the {doc} table")
        errors += 1
    for name in sorted(documented.keys() - coded.keys()):
        print(f"error: {documented[name]}: documented site '{name}' "
              f"has no USI_FAILPOINT under src/")
        errors += 1
    print(f"{len(coded)} coded site(s), {len(documented)} documented: "
          f"{'FAILED' if errors else 'catalog matches'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
