#!/usr/bin/env python
"""Fail if the prose documentation references files that do not exist.

Scans README.md, EXPERIMENTS.md, DESIGN.md, ROADMAP.md, and docs/*.md for

* markdown link targets — ``[text](path)`` with a relative ``path`` must
  resolve (against the linking document's directory) to an existing file;
* backtick path tokens — a single `` `token` `` containing ``/`` that looks
  like a repository path (plain ``[A-Za-z0-9_./-]`` characters, no spaces)
  must exist.  The docs' shorthand of package-relative paths
  (``core/fptas.py`` for ``src/repro/core/fptas.py``) is honoured.

Tokens that are clearly not repo paths are skipped: URLs, anchors,
placeholders containing ``<>{}*()=``, shell commands (whitespace), and
runtime artifact locations (``runs/...``, ``benchmarks/results/...``).

When the checked tree contains the ``repro`` package (``src/repro``), the
CLI surface is cross-checked too: every ``--flag`` token the docs mention
must be accepted by some ``python -m repro`` subcommand (stale docs), and
every flag the parser defines must be mentioned somewhere in the docs
(undocumented surface).  Flags belonging to other tools the docs discuss
(pytest, the bench comparators) are allowlisted in :data:`EXTERNAL_FLAGS`.

``ROADMAP.md`` is checked like every other document, so its open items
describe planned work in prose: a file an item plans is named without its
repo path until it exists, and a planned CLI option is described without
spelling out its ``--flag`` until the parser accepts it.

Usage::

    python tools/check_docs.py            # checks the repo it lives in
    python tools/check_docs.py /some/repo

Exits 0 when every reference resolves, 1 otherwise (each broken reference
is printed as ``file:line: message``).  Either way stdout names the
documents that were checked.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

DOC_GLOBS = ["README.md", "EXPERIMENTS.md", "DESIGN.md", "ROADMAP.md", "docs/*.md"]

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([^`\n]+)`")
# A backtick token we are willing to call "a path": no spaces, no
# placeholder/markup characters, at least one '/'.
PATHLIKE = re.compile(r"^[A-Za-z0-9_.\-/]+$")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "#")
# Locations that only exist after running something.
RUNTIME_PREFIXES = ("runs/", "benchmarks/results/")

#: ``--flag`` tokens in prose or fenced command examples.
FLAG = re.compile(r"(?<![\w/-])--[a-z][a-z0-9-]+")
#: Long options the docs mention that belong to *other* tools, not the
#: ``python -m repro`` parser (bench comparators, pytest, pip).
EXTERNAL_FLAGS = {
    "--benchmark-only",  # tools/compare_bench.py
    "--history",  # benchmarks/bench_* history ledger flag
    "--tolerance",  # tools/compare_bench.py regression threshold
    "--doctest-modules",  # pytest (cited when discussing the test config)
}


def iter_docs(root: Path):
    for pattern in DOC_GLOBS:
        yield from sorted(root.glob(pattern))


def check_doc(root: Path, doc: Path) -> list[str]:
    """Return ``file:line: message`` strings for every broken reference."""
    errors: list[str] = []
    in_fence = False
    for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        for match in MD_LINK.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            target = target.split("#", 1)[0]
            if not target or target.startswith(RUNTIME_PREFIXES):
                continue
            if not (doc.parent / target).exists():
                errors.append(
                    f"{doc.relative_to(root)}:{lineno}: broken link target {target!r}"
                )
        if in_fence:
            continue
        for match in BACKTICK.finditer(line):
            token = match.group(1).rstrip("/")
            if "/" not in token or not PATHLIKE.match(token):
                continue
            if token.startswith(RUNTIME_PREFIXES) or token.startswith("/"):
                continue
            if token.startswith("repro."):  # dotted Python reference, not a path
                continue
            candidates = (root / token, doc.parent / token, root / "src/repro" / token)
            if not any(c.exists() for c in candidates):
                errors.append(
                    f"{doc.relative_to(root)}:{lineno}: path {token!r} does not exist"
                )
    return errors


def repro_cli_flags(root: Path) -> set[str] | None:
    """Every ``--flag`` the ``python -m repro`` parser accepts, across all
    subcommands — or ``None`` when ``root`` has no ``repro`` package (the
    planted-rot fixture trees the tests run the checker against)."""
    src = root / "src"
    if not (src / "repro" / "__main__.py").exists():
        return None
    sys.path.insert(0, str(src))
    try:
        from repro.__main__ import build_parser
    finally:
        sys.path.remove(str(src))
    flags: set[str] = set()

    def walk(parser: argparse.ArgumentParser) -> None:
        for action in parser._actions:
            flags.update(opt for opt in action.option_strings if opt.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)

    walk(build_parser())
    flags.discard("--help")
    return flags


def check_cli_flags(root: Path, docs: list[Path]) -> list[str]:
    """Cross-check documented ``--flag`` tokens against the live parser."""
    known = repro_cli_flags(root)
    if known is None:
        return []
    errors: list[str] = []
    documented: set[str] = set()
    for doc in docs:
        for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
            for flag in FLAG.findall(line):
                if flag in EXTERNAL_FLAGS:
                    continue
                documented.add(flag)
                if flag not in known:
                    errors.append(
                        f"{doc.relative_to(root)}:{lineno}: flag {flag!r} is not "
                        "accepted by any `python -m repro` subcommand (stale docs; "
                        "if the option is only planned, describe it in prose until "
                        "the parser accepts it; or add it to EXTERNAL_FLAGS if it "
                        "belongs to another tool)"
                    )
    for flag in sorted(known - documented):
        errors.append(
            f"docs/RUNNING.md: flag {flag!r} exists in `python -m repro` but is "
            "documented nowhere"
        )
    return errors


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args else Path(__file__).resolve().parent.parent
    docs = list(iter_docs(root))
    if not docs:
        print(f"error: no documentation found under {root}", file=sys.stderr)
        return 1
    errors = [err for doc in docs for err in check_doc(root, doc)]
    errors.extend(check_cli_flags(root, docs))
    for err in errors:
        print(err)
    checked = ", ".join(str(d.relative_to(root)) for d in docs)
    if errors:
        print(f"checked: {checked}")
        print(f"{len(errors)} broken reference(s) across {checked}", file=sys.stderr)
        return 1
    print(f"docs OK: {checked}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
