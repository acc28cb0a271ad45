#!/usr/bin/env python
"""CI gate: every ``BENCH_*.json`` must carry the shared metadata schema.

Usage: ``PYTHONPATH=src python scripts/check_bench_meta.py [repo_root]``

Loads each ``BENCH_*.json`` at the repo root and validates its ``meta``
block against :mod:`repro.bench.meta` (schema version, host shape,
toolchain versions, git rev).  Exit code 1 — failing the
workflow — if any file is missing, unparseable, or off-schema, so bench
JSON drift is caught at the PR that introduces it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.bench.meta import validate_meta


def main(root: Path) -> int:
    paths = sorted(root.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json files under {root}", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL {path.name}: unreadable ({exc})")
            failures += 1
            continue
        problems = validate_meta(payload)
        if problems:
            failures += 1
            print(f"FAIL {path.name}:")
            for problem in problems:
                print(f"  - {problem}")
        else:
            meta = payload["meta"]
            print(
                f"ok   {path.name}: schema v{meta['schema_version']}, "
                f"rev {meta.get('git_rev')}"
            )
    if failures:
        print(
            f"\n{failures} bench file(s) off-schema; emit meta via "
            "repro.bench.meta.bench_meta()",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    raise SystemExit(main(root))
