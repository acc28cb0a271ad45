#!/usr/bin/env python
"""CI gate: fresh bench sweeps must not regress the committed baselines.

Usage: ``PYTHONPATH=src python scripts/check_bench_regression.py [repo_root]``

The CI quick sweep regenerates ``BENCH_*.json`` in the working tree;
this script diffs each one against its committed version (``git show
HEAD:<file>``) and fails — exit 1 — on a wall-clock regression beyond
the tolerance (default 25%, override with ``REPRO_BENCH_TOLERANCE``).

Rows pair up by their identity fields (backend/mode/n/m/p/...), so a
quick sweep only gates the configs it actually re-ran — which is why
the full sweeps commit their quick config's rows too.  Wall-clock is
only comparable on the machine that produced the baseline: when the
host fingerprint (platform + cpu count) differs — CI runners vs the
dev box — the gate falls back to the dimensionless ``*speedup*`` ratios
of matching rows, which must not drop by more than the same tolerance.
Baselines faster than MIN_SECONDS are skipped as noise-dominated.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

#: Row fields that identify a measurement (everything else is a metric).
ID_KEYS = (
    "backend", "mode", "n", "m", "p", "d", "k",
    # serve-layer sweeps (BENCH_serve.json): the flush policy and the
    # client population are part of a row's identity
    "transport", "arrival", "clients", "max_wait_ms", "max_batch",
)

#: Baselines below this wall-clock are dominated by timer/startup noise.
MIN_SECONDS = 0.05

TOLERANCE = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.25"))


def _row_key(row: dict):
    return tuple((k, row[k]) for k in ID_KEYS if k in row)


def _rows(payload: dict) -> dict:
    out = {}
    for row in payload.get("results", []) or []:
        # a row without a workload-size field cannot be paired safely —
        # a quick-sweep row would silently compare against a full-sweep
        # baseline of a different workload
        if isinstance(row, dict) and "n" in row:
            out[_row_key(row)] = row
    return out


def _baseline(root: Path, name: str) -> "dict | None":
    try:
        proc = subprocess.run(
            ["git", "show", f"HEAD:{name}"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=root,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def _host_fingerprint(payload: dict) -> tuple:
    meta = payload.get("meta") or {}
    return (meta.get("platform"), meta.get("cpu_count"))


def check_file(root: Path, path: Path) -> "tuple[int, int]":
    """Returns (comparisons, regressions) for one bench JSON."""
    name = path.name
    try:
        fresh = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL {name}: unreadable ({exc})")
        return 0, 1
    base = _baseline(root, name)
    if base is None:
        print(f"skip {name}: no committed baseline")
        return 0, 0
    same_host = _host_fingerprint(fresh) == _host_fingerprint(base)
    base_rows = _rows(base)
    compared = regressions = 0
    for key, row in _rows(fresh).items():
        old = base_rows.get(key)
        if old is None:
            continue
        for metric, new_val in row.items():
            old_val = old.get(metric)
            if not isinstance(new_val, (int, float)) or not isinstance(
                old_val, (int, float)
            ):
                continue
            if same_host and metric.endswith("_seconds"):
                if old_val < MIN_SECONDS:
                    continue
                compared += 1
                if new_val > old_val * (1 + TOLERANCE):
                    regressions += 1
                    print(
                        f"FAIL {name}: {dict(key)} {metric} "
                        f"{old_val:.4f}s -> {new_val:.4f}s "
                        f"(> {TOLERANCE:.0%} regression)"
                    )
            elif not same_host and "speedup" in metric:
                compared += 1
                if new_val < old_val * (1 - TOLERANCE):
                    regressions += 1
                    print(
                        f"FAIL {name}: {dict(key)} {metric} "
                        f"x{old_val} -> x{new_val} "
                        f"(> {TOLERANCE:.0%} ratio drop, cross-host)"
                    )
    mode = "wall-clock" if same_host else "speedup-ratio (cross-host)"
    print(f"ok   {name}: {compared} {mode} comparison(s), {regressions} regression(s)")
    return compared, regressions


def main(root: Path) -> int:
    paths = sorted(root.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json files under {root}", file=sys.stderr)
        return 1
    total = failures = 0
    for path in paths:
        compared, regressions = check_file(root, path)
        total += compared
        failures += regressions
    if failures:
        print(
            f"\n{failures} bench regression(s) beyond {TOLERANCE:.0%}; "
            "optimize, or re-baseline deliberately by committing the new JSON",
            file=sys.stderr,
        )
        return 1
    print(f"\nall clear: {total} comparison(s) within {TOLERANCE:.0%}")
    return 0


if __name__ == "__main__":
    root = (
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(__file__).resolve().parents[1]
    )
    raise SystemExit(main(root))
