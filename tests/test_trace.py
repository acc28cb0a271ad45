"""Tests for the superstep trace renderer."""

from __future__ import annotations

from repro.cgm import CostModel, Machine, render_trace

import tests.helpers  # noqa: F401  (registers the test.* phases)


def test_render_contains_steps_and_totals():
    mach = Machine(2)
    mach.run_phase("build-things", "test.charge", [5, 5])
    out = mach.empty_outboxes()
    out[0][1] = [1, 2, 3]
    mach.exchange("route-things", out)
    text = render_trace(mach.metrics, CostModel())
    assert "build-things" in text
    assert "route-things" in text
    assert "totals: 1 rounds" in text
    assert "max h 3" in text


def test_render_with_cost_model():
    mach = Machine(2)
    mach.run_phase("c", "test.charge", [1, 1])
    mach.exchange("x", mach.empty_outboxes())
    text = render_trace(mach.metrics, CostModel(g=2.0, L=10.0))
    assert "modeled BSP time" in text
    assert "g=2.0" in text


def test_render_empty_trace():
    mach = Machine(1)
    text = render_trace(mach.metrics, CostModel())
    assert "totals: 0 rounds" in text


def test_long_labels_truncated():
    mach = Machine(1)
    mach.run_phase("x" * 100, "test.echo")
    text = render_trace(mach.metrics, CostModel())
    # label column capped at 34 characters
    assert "x" * 34 in text
    assert "x" * 40 not in text
