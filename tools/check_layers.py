#!/usr/bin/env python3
"""Layering check: the serving library never includes the paper kit.

src/usi builds two static libraries. `usi` is the serving system;
`usi_paper` is the paper's reproduction kit and links `usi`. Each
src/usi/**/CMakeLists.txt assigns its files to one of them with
`target_sources(<target> PRIVATE ...)`. This check reads those lists and
fails when:

  * a file compiled into `usi` includes (#include "usi/...") a header that
    belongs to `usi_paper` (comments are ignored);
  * a .cpp/.hpp under src/usi is in neither list, or in both;
  * an include names a usi/ header that is in neither list.

Linking already catches a call across the boundary (frozen perfbench links
`usi` alone); this catches header-only uses, such as an options struct or
an inline function. Runs as the `layer_check` CTest entry (label "docs").

Usage: check_layers.py [--root DIR]
"""

import argparse
import pathlib
import re
import sys

TARGETS = ("usi", "usi_paper")
SOURCES_RE = re.compile(r"target_sources\(\s*(\w+)\s+PRIVATE\s+([^)]*)\)",
                        re.DOTALL)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(usi/[^"]+)"', re.MULTILINE)
SOURCE_SUFFIXES = {".cpp", ".hpp"}


def strip_comments(source: str) -> str:
    """Drops // line comments and /* */ block comments, keeping line
    numbers."""
    source = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"),
                    source, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", source)


def read_targets(src: pathlib.Path, errors: list) -> dict:
    """'usi/dir/file' -> target, from every CMakeLists.txt under src/usi."""
    owner = {}
    for cmake in sorted((src / "usi").rglob("CMakeLists.txt")):
        text = re.sub(r"#[^\n]*", "", cmake.read_text(encoding="utf-8"))
        for match in SOURCES_RE.finditer(text):
            target = match.group(1)
            if target not in TARGETS:
                errors.append(f"{cmake}: target_sources on unknown target "
                              f"'{target}'")
                continue
            directory = cmake.parent.relative_to(src)
            for name in match.group(2).split():
                path = (directory / name).as_posix()
                if path in owner and owner[path] != target:
                    errors.append(f"{cmake}: {path} is listed in both "
                                  f"{owner[path]} and {target}")
                owner[path] = target
    return owner


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()

    src = pathlib.Path(args.root) / "src"
    errors = []
    owner = read_targets(src, errors)
    if not owner:
        print(f"error: no target_sources lists found under {src / 'usi'}")
        return 1

    for path in sorted((src / "usi").rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        name = path.relative_to(src).as_posix()
        if name not in owner:
            errors.append(f"{path}: in no target's source list")
            continue
        text = strip_comments(path.read_text(encoding="utf-8"))
        for match in INCLUDE_RE.finditer(text):
            header = match.group(1)
            lineno = text.count("\n", 0, match.start()) + 1
            if header not in owner:
                errors.append(f"{path}:{lineno}: includes {header}, which is "
                              f"in no target's source list")
            elif owner[name] == "usi" and owner[header] == "usi_paper":
                errors.append(f"{path}:{lineno}: usi file includes {header}, "
                              f"which belongs to usi_paper")

    for error in errors:
        print(f"error: {error}")
    counts = {t: sum(1 for v in owner.values() if v == t) for t in TARGETS}
    print(f"usi: {counts['usi']} file(s), usi_paper: {counts['usi_paper']}: "
          f"{'FAILED' if errors else 'layers hold'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
