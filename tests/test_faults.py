"""The fault-injection engine: rules, plans, determinism, the hook."""

from __future__ import annotations

import json
import os

import pytest

from repro.cgm import Machine, register_phase
from repro.errors import InjectedFault, ReproError
from repro.faults import (
    ENV_VAR,
    FaultPlan,
    FaultRule,
    active_plan,
    clear_runtime,
    injected,
    install_plan,
    load_plan_from_env,
    maybe_inject,
    uninstall_plan,
)
from repro.faults.plan import _sample


@register_phase("faults.noop")
def _phase_noop(ctx, payload):
    return payload


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Every test starts and ends with no plan armed and fresh counters."""
    uninstall_plan()
    clear_runtime()
    yield
    uninstall_plan()
    clear_runtime()
    os.environ.pop(ENV_VAR, None)


class TestFaultRule:
    def test_validation(self):
        with pytest.raises(ReproError, match="unknown fault action"):
            FaultRule("x", "explode")
        with pytest.raises(ReproError, match="1-based"):
            FaultRule("x", "raise", at=0)
        with pytest.raises(ReproError, match="count"):
            FaultRule("x", "raise", count=-1)
        with pytest.raises(ReproError, match="probability"):
            FaultRule("x", "raise", probability=1.5)
        with pytest.raises(ReproError, match="delay_ms"):
            FaultRule("x", "delay", delay_ms=-1.0)

    def test_matches_exact_glob_and_rank(self):
        rule = FaultRule("dist.search.*", "raise", rank=1)
        assert rule.matches("dist.search.walk_cols", 1)
        assert not rule.matches("dist.search.walk_cols", 0)
        # rank-agnostic dispatch sites (kernel.fold) match ranked rules
        assert rule.matches("dist.search.walk_cols", None)
        assert not rule.matches("dist.build.walk", 1)

    def test_fires_window(self):
        rule = FaultRule("x", "raise", at=3, count=2)
        fired = [rule.fires(k, 0, "x", None) for k in range(1, 7)]
        assert fired == [False, False, True, True, False, False]

    def test_fires_forever_with_count_zero(self):
        rule = FaultRule("x", "raise", at=2, count=0)
        assert not rule.fires(1, 0, "x", None)
        assert all(rule.fires(k, 0, "x", None) for k in range(2, 10))

    def test_probability_sampling_is_stateless_and_seeded(self):
        # identical inputs -> identical sample; seed changes the stream
        a = _sample(7, "site", 1, 3)
        assert a == _sample(7, "site", 1, 3)
        assert 0.0 <= a < 1.0
        assert a != _sample(8, "site", 1, 3)
        rule = FaultRule("x", "raise", probability=0.5)
        decisions = [rule.fires(k, 7, "x", 0) for k in range(1, 50)]
        assert decisions == [rule.fires(k, 7, "x", 0) for k in range(1, 50)]
        assert any(decisions) and not all(decisions)


class TestFaultPlan:
    def test_spec_round_trip_preserves_every_field(self):
        plan = FaultPlan(
            rules=(
                FaultRule("a.*", "crash", at=2, count=3, rank=0),
                FaultRule("b", "delay", delay_ms=1.5, message="slow"),
                FaultRule("c", "raise", probability=0.25),
            ),
            seed=11,
            name="trip",
        )
        again = FaultPlan.from_spec(plan.to_spec())
        assert again == plan
        # ... and through JSON (the env/CLI transport)
        assert FaultPlan.from_spec(plan.to_json()) == plan

    def test_rank_zero_survives_the_spec(self):
        plan = FaultPlan(rules=(FaultRule("a", "raise", rank=0),))
        assert FaultPlan.from_spec(plan.to_spec()).rules[0].rank == 0

    def test_malformed_specs_raise(self):
        with pytest.raises(ReproError, match="malformed fault-plan JSON"):
            FaultPlan.from_spec("{nope")
        with pytest.raises(ReproError, match="must be an object"):
            FaultPlan.from_spec("[1, 2]")
        with pytest.raises(ReproError, match="malformed fault rule"):
            FaultPlan.from_spec({"rules": [{"site": "x", "bogus": 1}]})


class TestRuntime:
    def test_install_uninstall_and_env_transport(self):
        plan = FaultPlan(rules=(FaultRule("x", "raise"),), name="env")
        install_plan(plan, env=True)
        assert active_plan() is plan
        assert json.loads(os.environ[ENV_VAR])["name"] == "env"
        uninstall_plan()
        assert active_plan() is None
        assert ENV_VAR not in os.environ

    def test_load_plan_from_env(self):
        plan = FaultPlan(rules=(FaultRule("x", "delay", delay_ms=1),))
        os.environ[ENV_VAR] = plan.to_json()
        assert load_plan_from_env() == plan
        assert active_plan() == plan

    def test_injected_context_restores_prior_env(self):
        os.environ[ENV_VAR] = "prior"
        with injected(FaultPlan(name="inner")):
            assert json.loads(os.environ[ENV_VAR])["name"] == "inner"
        assert os.environ[ENV_VAR] == "prior"

    def test_maybe_inject_counts_per_site_and_rank(self):
        plan = FaultPlan(rules=(FaultRule("x", "raise", at=2),))
        install_plan(plan)
        maybe_inject("x", 0)  # occurrence 1 on rank 0: no fire
        maybe_inject("x", 1)  # occurrence 1 on rank 1: independent counter
        with pytest.raises(InjectedFault) as exc:
            maybe_inject("x", 0)  # occurrence 2 on rank 0
        assert exc.value.site == "x" and exc.value.rank == 0

    def test_crash_degrades_to_raise_in_process(self):
        # no worker process to kill: the driver gets the structured raise
        install_plan(FaultPlan(rules=(FaultRule("x", "crash"),)))
        with pytest.raises(InjectedFault):
            maybe_inject("x")

    def test_delay_rules_accumulate(self):
        import time

        install_plan(
            FaultPlan(
                rules=(
                    FaultRule("x", "delay", delay_ms=5.0),
                    FaultRule("x", "delay", delay_ms=5.0),
                )
            )
        )
        t0 = time.perf_counter()
        maybe_inject("x")
        assert time.perf_counter() - t0 >= 0.009


class TestPhaseHook:
    def test_serial_backend_dispatch_fires_rules(self):
        plan = FaultPlan(
            rules=(FaultRule("faults.noop", "raise", rank=1, at=2),)
        )
        with Machine(2) as mach:
            with injected(plan, env=False):
                assert mach.run_phase("a", "faults.noop", [1, 2]) == [1, 2]
                with pytest.raises(InjectedFault) as exc:
                    mach.run_phase("b", "faults.noop", [3, 4])
        assert exc.value.rank == 1

    def test_no_plan_is_a_no_op(self):
        with Machine(2) as mach:
            assert mach.run_phase("a", "faults.noop", [5, 6]) == [5, 6]
