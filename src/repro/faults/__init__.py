"""``repro.faults`` — deterministic, seeded fault injection.

Production traffic fails in two characteristic ways — partial failure
(a rank dies mid-superstep) and overload (more work arrives than the
service can absorb) — and neither can be tested by waiting for it to
happen.  This package makes failures *first-class, reproducible inputs*:
a :class:`FaultPlan` is a small, serializable set of rules ("crash rank
1 at the 2nd ``dist.search.walk_cols`` dispatch", "delay every
``cgm.sort.local_cols`` by 5ms", "raise at the 3rd kernel fold"), and the
runtime consults the installed plan at three hook sites:

* **phase dispatch** — every backend's ``run_phase`` path calls
  :func:`maybe_inject` with the phase name and rank before invoking the
  phase function (inside the worker process on the process backend, so
  a ``crash`` action really kills the rank);
* **kernel folds** — :func:`repro.semigroup.kernels.fold_segments`
  fires the ``kernel.fold`` site;
* **the serve executor** — each engine pass the daemon runs fires
  ``serve.execute``, so batch poisoning is injectable too.

Determinism: rules match by occurrence count — each process keeps a
per-``(rule, rank)`` dispatch counter, so "the k-th dispatch" is the
same dispatch on every run of the same program.  Probabilistic rules
hash ``(seed, site, rank, occurrence)`` (no RNG state), so sampled
chaos is also bit-for-bit reproducible.  Plans travel to worker
processes via the ``REPRO_FAULT_PLAN`` environment variable (the CLI's
``--fault-plan`` sets it), which both ``fork`` and ``spawn`` workers
read on bootstrap.

The chaos differential suite (``pytest -m chaos``) runs committed plans
against the full stack and asserts surviving answers are bit-identical
to a fault-free run.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".plan": ("ACTIONS", "FaultRule", "FaultPlan"),
        ".runtime": (
            "CRASH_EXIT_CODE",
            "ENV_VAR",
            "install_plan",
            "uninstall_plan",
            "active_plan",
            "injected",
            "maybe_inject",
            "load_plan_from_env",
            "mark_in_worker",
            "clear_runtime",
        ),
    },
)
