"""Fault plans: the rules a chaos run arms, and their JSON form.

A :class:`FaultRule` names a *site* (a phase name like
``dist.search.walk_cols``, or an ``fnmatch`` glob like ``cgm.sort.*``;
the non-phase sites are ``kernel.fold`` and ``serve.execute``), an
*action*, and *when* it fires.  Occurrence counting is per
``(rule, site, rank)`` within one process: the k-th matching dispatch is
the same dispatch on every run, which is what makes a chaos run
replayable bit-for-bit.

Actions
-------
``delay``
    Sleep ``delay_ms`` before running the dispatch (answers unchanged —
    the differential suite's no-op fault).
``raise``
    Raise :class:`~repro.errors.InjectedFault` instead of running it.
``crash``
    Die without cleanup (``os._exit``) when running inside a worker
    process — a real SIGKILL-equivalent the supervised backend must
    detect.  In-process backends have no rank to kill, so ``crash``
    degrades to ``raise`` there (documented, asserted by tests).

Scheduling
----------
``at`` is the 1-based occurrence at which the rule starts firing and
``count`` how many consecutive occurrences fire (``0`` = every one from
``at`` on).  A rule may instead carry ``probability``: each occurrence
fires independently with that probability, sampled by hashing
``(plan seed, site, rank, occurrence)`` — no RNG state, so sampled
chaos replays exactly.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ReproError

__all__ = ["ACTIONS", "FaultRule", "FaultPlan"]

ACTIONS = ("delay", "raise", "crash")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule; see the module docstring for semantics."""

    site: str
    action: str
    at: int = 1
    count: int = 1
    rank: Optional[int] = None
    delay_ms: float = 0.0
    probability: Optional[float] = None
    message: str = ""

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ReproError(
                f"unknown fault action {self.action!r}; one of {ACTIONS}"
            )
        if self.at < 1:
            raise ReproError(f"rule 'at' is 1-based, got {self.at}")
        if self.count < 0:
            raise ReproError(f"rule 'count' must be >= 0, got {self.count}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ReproError(
                f"rule 'probability' must be in [0, 1], got {self.probability}"
            )
        if self.action == "delay" and self.delay_ms < 0:
            raise ReproError(f"delay_ms must be >= 0, got {self.delay_ms}")

    def matches(self, site: str, rank: Optional[int]) -> bool:
        """Does this rule watch the given dispatch site/rank at all?"""
        if self.rank is not None and rank is not None and self.rank != rank:
            return False
        return self.site == site or fnmatch.fnmatchcase(site, self.site)

    def fires(self, occurrence: int, seed: int, site: str,
              rank: Optional[int]) -> bool:
        """Does the rule act on this (1-based) matching occurrence?"""
        if occurrence < self.at:
            return False
        if self.probability is not None:
            return _sample(seed, site, rank, occurrence) < self.probability
        if self.count == 0:
            return True
        return occurrence < self.at + self.count


def _sample(seed: int, site: str, rank: Optional[int], occurrence: int) -> float:
    """Stateless uniform sample in [0, 1) — replayable by construction."""
    key = f"{seed}:{site}:{-1 if rank is None else rank}:{occurrence}"
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of rules — the unit chaos tests commit."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    # -- serialization (the env/CLI transport) -----------------------------
    def to_spec(self) -> dict:
        def rule_spec(r: FaultRule) -> dict:
            spec: dict = {
                "site": r.site, "action": r.action, "at": r.at,
                "count": r.count,
            }
            if r.rank is not None:
                spec["rank"] = r.rank
            if r.delay_ms:
                spec["delay_ms"] = r.delay_ms
            if r.probability is not None:
                spec["probability"] = r.probability
            if r.message:
                spec["message"] = r.message
            return spec

        return {
            "name": self.name,
            "seed": self.seed,
            "rules": [rule_spec(r) for r in self.rules],
        }

    @classmethod
    def from_spec(cls, spec: "dict | str") -> "FaultPlan":
        if isinstance(spec, str):
            try:
                spec = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise ReproError(f"malformed fault-plan JSON: {exc}") from None
        if not isinstance(spec, dict):
            raise ReproError(
                f"fault plan spec must be an object, got {type(spec).__name__}"
            )
        try:
            rules = tuple(
                FaultRule(**rule) for rule in spec.get("rules", ())
            )
        except TypeError as exc:
            raise ReproError(f"malformed fault rule: {exc}") from None
        return cls(
            rules=rules,
            seed=int(spec.get("seed", 0)),
            name=str(spec.get("name", "")),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), sort_keys=True)
