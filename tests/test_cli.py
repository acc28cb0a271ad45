"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["query", "--n", "64", "--p", "3", "--m", "4"], "power of two, got 3"),
        (["query", "--n", "64", "--d", "0", "--m", "4"], "at least one dimension"),
        (["stream", "--n", "64", "--p", "3"], "power of two, got 3"),
        (["loadgen", "--n", "64", "--p", "3"], "power of two, got 3"),
    ],
)
def test_a_repro_error_is_one_line_on_stderr_and_exit_2(argv, needle, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ") and needle in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_defaults(self):
        args = build_parser().parse_args(["experiments"])
        assert args.ids == []
        assert not args.markdown

    def test_query_defaults(self):
        args = build_parser().parse_args(["query"])
        assert args.n == 1024 and args.p == 8 and args.mode == "count"

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--mode", "explode"])

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.n_ops == 200 and args.d == 2 and args.flush_threshold == 32

    def test_stream_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--backend", "quantum"])


class TestExperimentsCommand:
    def test_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        for key in ("F1", "T1", "C1", "S1", "D1", "DY1", "SQ1"):
            assert key in out

    def test_unknown_id(self, capsys):
        assert main(["experiments", "ZZ9"]) == 2

    def test_run_single_fast_experiment(self, capsys):
        assert main(["experiments", "F1"]) == 0
        out = capsys.readouterr().out
        assert "[1,8]" in out and "yes" in out

    def test_markdown_output_to_file(self, tmp_path, capsys):
        target = tmp_path / "f1.md"
        assert main(["experiments", "F1", "--markdown", "-o", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("### F1")
        assert "| level |" in text

    def test_lowercase_ids_accepted(self, capsys):
        assert main(["experiments", "f2"]) == 0


class TestQueryCommand:
    def test_count_with_verify(self, capsys):
        rc = main(
            ["query", "--n", "64", "--m", "16", "--p", "4", "--verify"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verification: OK" in out

    def test_report_mode(self, capsys):
        rc = main(
            ["query", "--n", "64", "--m", "8", "--p", "4", "--mode", "report", "--verify"]
        )
        assert rc == 0
        assert "verification: OK" in capsys.readouterr().out

    def test_aggregate_mode(self, capsys):
        rc = main(["query", "--n", "64", "--m", "8", "--p", "4", "--mode", "aggregate"])
        assert rc == 0

    def test_trace_and_validate(self, capsys):
        rc = main(
            ["query", "--n", "64", "--m", "8", "--p", "4", "--trace", "--validate"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "totals:" in out
        assert "modeled BSP time [BSP(g=1.0, L=100.0)]: " in out
        assert "validation: OK" in out

    def test_hotspot_workload(self, capsys):
        rc = main(
            ["query", "--n", "64", "--m", "16", "--p", "4", "--queries", "hotspot", "--verify"]
        )
        assert rc == 0
        assert "verification: OK" in capsys.readouterr().out

    def test_clustered_points(self, capsys):
        rc = main(["query", "--points", "clustered", "--n", "64", "--m", "8", "--p", "2"])
        assert rc == 0

    def test_process_backend(self, capsys):
        rc = main(["query", "--n", "64", "--m", "8", "--p", "2", "--backend", "process"])
        assert rc == 0

    def test_thread_backend(self, capsys):
        """There is no thread backend: ``--backend`` offers exactly the
        backends that exist."""
        with pytest.raises(SystemExit) as ei:
            main(["query", "--n", "64", "--backend", "thread"])
        assert ei.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert all(name in err for name in ("thread", "process", "serial"))

    def test_mixed_mode_with_verify(self, capsys):
        rc = main(
            ["query", "--n", "64", "--m", "9", "--p", "4", "--mode", "mixed", "--verify"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "verification: OK" in out
        # one planned pass: the search phase appears exactly once
        assert "phases: ['search', 'query']" in out

    def test_json_output(self, capsys):
        import json

        rc = main(
            ["query", "--n", "64", "--m", "6", "--p", "4", "--mode", "mixed", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["queries"]) == 6
        assert {q["mode"] for q in payload["queries"]} == {
            "count",
            "report",
            "aggregate",
        }
        assert payload["metrics"]["rounds"] >= 1
        assert "search" in payload["phases"]

    def test_json_single_mode(self, capsys):
        import json

        rc = main(["query", "--n", "64", "--m", "4", "--p", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(q["mode"] == "count" for q in payload["queries"])
        assert all(isinstance(q["value"], int) for q in payload["queries"])

    def test_retired_plane_env_vars_are_inert(self):
        """``REPRO_{DATA,VALUE,WALK}PLANE`` used to switch implementations
        process-wide; nothing reads them any more.  Same command, with
        and without them: identical JSON (``wall_seconds`` is wall clock,
        which no two runs share)."""
        import json
        import os
        import subprocess
        import sys

        import repro

        cmd = [sys.executable, "-m", "repro", "query",
               "--n", "64", "--m", "8", "--p", "4", "--json"]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        clean = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        clean["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in clean.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        retired = {
            f"REPRO_{layer}PLANE": "object" for layer in ("DATA", "VALUE", "WALK")
        }
        outs = []
        for env in (clean, {**clean, **retired}):
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True, timeout=60
            )
            assert proc.returncode == 0, proc.stderr
            payload = json.loads(proc.stdout)
            payload.pop("wall_seconds")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_stream_oracle_agrees(self, capsys):
        rc = main(["stream", "--n-ops", "60", "--p", "4", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "oracle verification: OK" in out
        assert "DISAGREES" not in out

    def test_stream_d3_process_backend(self, capsys):
        rc = main(
            ["stream", "--n-ops", "50", "--d", "3", "--p", "2",
             "--backend", "process", "--flush-threshold", "8"]
        )
        assert rc == 0
        assert "oracle verification: OK" in capsys.readouterr().out

    def test_stream_json_contract(self, capsys):
        """--json: stdout is one JSON document, diagnostics on stderr."""
        import json

        rc = main(["stream", "--n-ops", "40", "--p", "2", "--json"])
        assert rc == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # must not raise
        assert payload["oracle_agrees"] is True
        assert payload["stream"]["ops"] >= 40
        assert payload["space"]["d"] == 2
        assert payload["final_checkpoint"]["queries"]
        assert "checkpoint" in captured.err

    def test_json_stays_parseable_with_diagnostic_flags(self, capsys):
        """--json + --verify/--validate/--trace: stdout is pure JSON,
        diagnostics land on stderr."""
        import json

        rc = main(
            ["query", "--n", "64", "--m", "6", "--p", "4", "--mode", "mixed",
             "--json", "--verify", "--validate", "--trace"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # must not raise
        assert len(payload["queries"]) == 6
        assert "verification: OK" in captured.err
        assert "validation: OK" in captured.err
