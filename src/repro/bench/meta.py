"""Shared metadata for every ``BENCH_*.json`` the drivers emit.

The bench JSONs at the repo root are the perf trajectory's record of
truth, but a number without its environment is noise: a "speedup" on a
1-core container or an old numpy is a different fact than the same
number on an 8-core host.  Every driver therefore stamps its output with
one uniform ``meta`` block from :func:`bench_meta` — schema version,
host shape, toolchain versions, git revision — and CI
fails any ``BENCH_*.json`` missing the schema
(``scripts/check_bench_meta.py`` runs :func:`validate_meta`).
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

__all__ = ["SCHEMA_VERSION", "REQUIRED_KEYS", "bench_meta", "validate_meta"]

#: Bump when the meta block's shape changes incompatibly (extra keys in
#: an older committed JSON are not incompatible).
SCHEMA_VERSION = 2

#: Keys every emitted meta block must carry (the CI contract).
REQUIRED_KEYS = (
    "schema_version",
    "cpu_count",
    "python_version",
    "numpy_version",
    "platform",
    "git_rev",
    "generated_unix",
)


def _git_rev() -> "str | None":
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parents[3],
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def bench_meta() -> Dict[str, Any]:
    """The uniform ``meta`` block every bench JSON embeds."""
    return {
        "schema_version": SCHEMA_VERSION,
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "generated_unix": int(time.time()),
    }


def validate_meta(payload: Dict[str, Any]) -> List[str]:
    """Problems with one loaded bench JSON's metadata (empty = valid)."""
    problems: List[str] = []
    meta = payload.get("meta")
    if not isinstance(meta, dict):
        return ["missing 'meta' block (see repro.bench.meta.bench_meta)"]
    for key in REQUIRED_KEYS:
        if key not in meta:
            problems.append(f"meta missing key {key!r}")
    version = meta.get("schema_version")
    if version is not None and version != SCHEMA_VERSION:
        problems.append(
            f"meta schema_version {version!r} != expected {SCHEMA_VERSION}"
        )
    return problems
