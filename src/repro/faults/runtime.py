"""The process-local injection runtime: the armed plan, its occurrence
counters, and the hook the backends, the kernel fold and the serve
executor call.

Apart from :mod:`repro.faults.plan` on purpose: every process runs the
hook, but only one that arms a plan loads the rules and their JSON form.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..errors import InjectedFault

if TYPE_CHECKING:  # an armed plan has loaded them already
    from .plan import FaultPlan, FaultRule

__all__ = [
    "ENV_VAR",
    "CRASH_EXIT_CODE",
    "install_plan",
    "uninstall_plan",
    "active_plan",
    "injected",
    "maybe_inject",
    "load_plan_from_env",
    "mark_in_worker",
    "clear_runtime",
]

#: Environment variable carrying a JSON plan spec into worker processes
#: (and into any entry point: the CLI's ``--fault-plan`` just sets it).
ENV_VAR = "REPRO_FAULT_PLAN"

#: Exit status a ``crash`` action dies with inside a worker (visible as
#: :attr:`repro.errors.WorkerCrash.exit_code`).
CRASH_EXIT_CODE = 73

_active: Optional[FaultPlan] = None
_counts: Dict[Tuple[int, str, Optional[int]], int] = {}
_in_worker = False
_env_installed = False


def install_plan(plan: FaultPlan, env: bool = False) -> None:
    """Arm ``plan`` in this process (fresh occurrence counters).

    With ``env=True`` the plan is also exported via ``REPRO_FAULT_PLAN``
    so worker processes started afterwards arm it on bootstrap.
    """
    global _active, _env_installed
    _active = plan
    _counts.clear()
    if env:
        os.environ[ENV_VAR] = plan.to_json()
        _env_installed = True


def uninstall_plan() -> None:
    """Disarm injection (and drop an env export made by install_plan)."""
    global _active, _env_installed
    _active = None
    _counts.clear()
    if _env_installed:
        os.environ.pop(ENV_VAR, None)
        _env_installed = False


def active_plan() -> Optional[FaultPlan]:
    return _active


def clear_runtime() -> None:
    """Reset counters and worker flag (test isolation helper)."""
    global _in_worker
    _counts.clear()
    _in_worker = False


class injected:
    """Context manager: arm a plan for a ``with`` block, restore after.

    ``env=True`` (the default) exports the plan to workers spawned
    inside the block — the shape every chaos test uses.
    """

    def __init__(self, plan: FaultPlan, env: bool = True) -> None:
        self._plan = plan
        self._env = env
        self._prev_env: Optional[str] = None

    def __enter__(self) -> FaultPlan:
        self._prev_env = os.environ.get(ENV_VAR)
        install_plan(self._plan, env=self._env)
        return self._plan

    def __exit__(self, *exc: Any) -> None:
        uninstall_plan()
        if self._prev_env is not None:
            os.environ[ENV_VAR] = self._prev_env


def load_plan_from_env() -> Optional[FaultPlan]:
    """Arm the plan named by ``REPRO_FAULT_PLAN`` (worker bootstrap)."""
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    from .plan import FaultPlan

    plan = FaultPlan.from_spec(spec)
    install_plan(plan, env=False)
    return plan


def mark_in_worker(host: int) -> None:
    """Called by worker-process mains: enables real ``crash`` actions and
    resets any counters inherited across a ``fork``."""
    global _in_worker
    _in_worker = True
    _counts.clear()


def maybe_inject(site: str, rank: Optional[int] = None) -> None:
    """The hook: fire whatever the active plan schedules for this dispatch.

    Called by backends before invoking a phase, by the kernel fold, and
    by the serve executor.  No-ops (one attribute load) when no plan is
    armed, so the hot path stays hot.
    """
    plan = _active
    if plan is None:
        return
    delay_ms = 0.0
    fired: Optional[FaultRule] = None
    for idx, rule in enumerate(plan.rules):
        if not rule.matches(site, rank):
            continue
        key = (idx, site, rank)
        occurrence = _counts.get(key, 0) + 1
        _counts[key] = occurrence
        if not rule.fires(occurrence, plan.seed, site, rank):
            continue
        if rule.action == "delay":
            delay_ms += rule.delay_ms
        elif fired is None:
            fired = rule
    if delay_ms > 0.0:
        time.sleep(delay_ms / 1000.0)
    if fired is None:
        return
    if fired.action == "crash" and _in_worker:
        # A real crash: no cleanup, no goodbye on the pipe.  The
        # supervised backend must notice on its own.
        os._exit(CRASH_EXIT_CODE)
    # crash outside a worker process degrades to a structured raise —
    # there is no rank-local process to kill without taking the driver.
    raise InjectedFault(site, rank, fired.message)
