"""The documents' references resolve, and README's code runs.

A ``FOUND N`` id is line ``N`` of CHANGES.md, so the log only ever grows
at its end and a finding is mended by rewriting its own line.  A
backticked module path or ``repro.`` name in ARCHITECTURE.md or README.md
must name code that exists, so a rename cannot leave the docs behind.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHANGES = ROOT / "CHANGES.md"
ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"
README = ROOT / "README.md"
CITING = [
    ROOT / "ROADMAP.md",
    CHANGES,
    ARCHITECTURE,
    README,
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
SOURCE_DIRS = ("src", "tests", "scripts", "perf", "examples")

#: Lines 1-185 are the log as compacted in place: exactly these begin
#: ``- FOUND:`` or ``- MENDED:``, and their numbers are the findings' ids.
FINDING_LINES = {147, 148, 151, 152, 154, 156, 158, 159, 160, 163, 166, 168, 185}
COMPACTED_END = 185
ENTRY_MAX_LINES = 25
ENTRY_MAX_BYTES = 4096

FINDING = re.compile(r"^- (FOUND|MENDED):")
CITATION = re.compile(r"\bFOUND (\d+(?:/\d+)*)")
PATH_REF = re.compile(r"^[\w./-]+\.py(?:::[\w.]+)*$")
NAME_REF = re.compile(r"^repro(?:\.\w+)+$")


def _changes_lines() -> list[str]:
    return CHANGES.read_text(encoding="utf-8").split("\n")


def _citations():
    for doc in CITING:
        for lineno, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            for match in CITATION.finditer(line):
                for n in match.group(1).split("/"):
                    yield f"{doc.name}:{lineno}", int(n)


def test_every_found_citation_names_a_finding_line():
    lines = _changes_lines()
    bad = [
        (where, n)
        for where, n in _citations()
        if not (1 <= n <= len(lines) and FINDING.match(lines[n - 1]))
    ]
    assert not bad, f"FOUND ids that are no CHANGES.md finding line: {bad}"


def test_compacted_lines_keep_their_numbers():
    lines = _changes_lines()
    assert len(lines) > COMPACTED_END
    findings = {n for n in range(1, COMPACTED_END + 1) if FINDING.match(lines[n - 1])}
    assert findings == FINDING_LINES


def _entries_after(lines: list[str], start: int):
    entry: list[str] = []
    for line in lines[start:]:
        if line.startswith("- ") and not FINDING.match(line) and entry:
            yield entry
            entry = []
        if line:
            entry.append(line)
    if entry:
        yield entry


def test_appended_entries_stay_short():
    too_long = [
        (entry[0][:60], len(entry), len("\n".join(entry).encode()))
        for entry in _entries_after(_changes_lines(), COMPACTED_END)
        if len(entry) > ENTRY_MAX_LINES
        or len("\n".join(entry).encode()) > ENTRY_MAX_BYTES
    ]
    assert not too_long, f"entries over {ENTRY_MAX_LINES} lines or {ENTRY_MAX_BYTES} B: {too_long}"


def _references(doc: Path) -> list[str]:
    spans = re.findall(r"`([^`\n]+)`", doc.read_text(encoding="utf-8"))
    return sorted({s for s in spans if PATH_REF.match(s) or NAME_REF.match(s)})


def _find_file(path: str) -> Path | None:
    for base in (ROOT, ROOT / "src", ROOT / "src" / "repro"):
        if (base / path).is_file():
            return base / path
    if "/" not in path:
        for top in SOURCE_DIRS:
            hits = sorted((ROOT / top).rglob(path))
            if hits:
                return hits[0]
    return None


def _resolve_attr(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _defined_in(file: Path, dotted: str) -> bool:
    """``dotted`` (``name`` or ``Class.member``) is defined in ``file``."""
    body = ast.parse(file.read_text(encoding="utf-8")).body
    for part in dotted.split("."):
        found = None
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            if part in names:
                found = node
        if found is None:
            return False
        body = getattr(found, "body", [])
    return True


def _resolves(ref: str) -> bool:
    if NAME_REF.match(ref):
        parts = ref.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                module = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            return _resolve_attr(module, ".".join(parts[cut:])) if cut < len(parts) else True
        return False
    path, *names = ref.split("::")
    file = _find_file(path)
    if file is None:
        return False
    if not names:
        return True
    src = ROOT / "src"
    if src in file.parents:
        module = importlib.import_module(".".join(file.relative_to(src).with_suffix("").parts))
        return _resolve_attr(module, ".".join(names))
    return _defined_in(file, ".".join(names))


@pytest.mark.parametrize("doc", [ARCHITECTURE, README], ids=lambda p: p.name)
def test_code_references_resolve(doc: Path):
    refs = _references(doc)
    assert refs
    missing = [ref for ref in refs if not _resolves(ref)]
    assert not missing, f"{doc.name} names code that does not exist: {missing}"


README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
)


@pytest.mark.timeout(120)
@pytest.mark.parametrize(
    "block", [pytest.param(b, id=f"block{i}") for i, b in enumerate(README_BLOCKS, 1)]
)
def test_readme_block_runs_standalone(block: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", block],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=110,
    )
    assert done.returncode == 0, done.stderr[-2000:]
