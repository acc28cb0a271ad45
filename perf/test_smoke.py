"""Smoke test of the benchmark itself (collected by the tier-1 command).

Runs all five workloads at ``--scale smoke`` in subprocesses — untraced once,
traced once, two of them traced again — and checks the contract: every
metric ``BENCHMARK.json`` names is emitted with its unit, no op fails, exact
counts repeat, the trace budget closes, and a missing wrap target is a
warning, not a crash.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
BENCH = json.loads((PERF.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _launch(out: Path, trace: int, workload: str, cpu: "int | None") -> subprocess.Popen:
    cmd = [
        sys.executable, str(PERF / "run.py"), "--workload", workload, "--scale", "smoke",
        "--seed", "3", "--trace", str(trace), "--out", str(out),
    ]
    if cpu is not None and shutil.which("taskset"):
        # the runner pins itself to its last usable CPU: give concurrent runs one each
        cmd = ["taskset", "-c", str(cpu)] + cmd
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _collect(procs: dict, outs: dict) -> dict:
    got = {}
    for label, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        records = json.loads(outs[label].read_text())
        got[label] = ({r["workload"]: r for r in records}, stdout)
    return got


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{label: (records by workload, stdout)}`` of an untraced run of all
    workloads, a traced one, and a second traced run of two of them."""
    out_dir = tmp_path_factory.mktemp("perf")
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    first, last = (cpus[0], cpus[-1]) if len(cpus) >= 2 else (None, None)
    outs = {label: out_dir / f"{label}.json" for label in ("e2e", "traced", "again_a", "again_b")}
    got = _collect(
        {
            "e2e": _launch(outs["e2e"], 0, "all", first),
            "traced": _launch(outs["traced"], 1, "all", last),
        },
        outs,
    )
    again = _collect(
        {
            "again_a": _launch(outs["again_a"], 1, "batch_uniform", first),
            "again_b": _launch(outs["again_b"], 1, "dynamic_stream", last),
        },
        outs,
    )
    got["traced_again"] = ({**again["again_a"][0], **again["again_b"][0]}, "")
    return got


@pytest.mark.parametrize("label,listed", [("e2e", "end_to_end"), ("traced", "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(runs, label, listed):
    records, _ = runs[label]
    assert sorted(records) == sorted(WORKLOADS)
    want = {m["name"]: m["unit"] for m in BENCH[listed]}
    for name, record in records.items():
        got = {k: m["unit"] for k, m in record["metrics"].items()}
        assert got == want, name
        assert record["failed"] == 0 and record["attempted"] >= 1, name
        assert record["extras"]["error_share"]["value"] == 0, name


def test_last_line_of_each_run_is_the_result_object(runs):
    _, stdout = runs["e2e"]
    results = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True
        assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCH["end_to_end"])
        assert all(sorted(m) == ["unit", "value"] for m in result["metrics"].values())


def test_exact_counts_repeat_and_the_trace_budget_closes(runs):
    first, _ = runs["traced"]
    again, _ = runs["traced_again"]
    for name in WORKLOADS:
        assert first[name]["metrics"]["bench.span_coverage"]["value"] >= 0.99, name
    for name, record in again.items():
        exact = [
            (section, key)
            for section in ("metrics", "extras")
            for key, m in record[section].items()
            if m["exact"]
        ]
        assert len(exact) >= 10, name
        for section, key in exact:
            assert record[section][key]["value"] == first[name][section][key]["value"], (name, key)


def test_a_missing_wrap_target_is_a_warning_not_a_crash(capsys):
    import repro.dist
    import repro.geometry.rankspace as rankspace

    from perf.trace import Tracer

    original = rankspace.pad_to_power_of_two
    tracer = Tracer()
    try:
        tracer.install(
            [
                ("dist", "gone_function", "repro.dist", "no_such_function", None),
                ("dist", "gone_module", "repro.no_such_module", "anything", None),
                ("cgm", "gone_method", "repro.cgm.machine", "Machine.no_such_method", None),
                ("geometry", "pad", "repro.geometry.rankspace", "pad_to_power_of_two", None),
            ]
        )
        assert len(tracer.warnings) == 3
        # the surviving target is wrapped wherever the same function object lives
        assert rankspace.pad_to_power_of_two is not original
        assert repro.dist.pad_to_power_of_two is rankspace.pad_to_power_of_two
    finally:
        tracer.uninstall()
    assert rankspace.pad_to_power_of_two is original
    assert repro.dist.pad_to_power_of_two is original
    assert "not found" in capsys.readouterr().err
