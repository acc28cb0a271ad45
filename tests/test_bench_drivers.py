"""The paper's claims as tier-1 tests: every experiment driver in
``repro.bench.EXPERIMENTS`` runs once at its default parameters and the
table it returns must show the shape its theorem/figure promises."""

from __future__ import annotations

import functools
from collections import defaultdict
from pathlib import Path

import pytest

from repro.bench import EXPERIMENTS, Table, run_f3, run_sq1
from repro.cli import main

#: ``python -m repro experiments`` as the tables stand; a change that moves
#: an exact counter regenerates it and says so.
GOLDEN = Path(__file__).parent / "data" / "experiments.txt"


class TestTable:
    def test_add_row_arity_checked(self):
        t = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_column_access(self):
        t = Table("t", ["a", "b"])
        t.add_row(1, "x")
        t.add_row(2, "y")
        assert t.column("a") == [1, 2]
        assert t.column("b") == ["x", "y"]

    def test_render_contains_everything(self):
        t = Table("My Title", ["col"])
        t.add_row(3.14159)
        t.add_note("a note")
        text = t.render()
        assert "My Title" in text and "col" in text and "3.142" in text and "a note" in text

    def test_markdown_shape(self):
        t = Table("T", ["x", "y"])
        t.add_row(1, 2)
        md = t.to_markdown()
        assert md.splitlines()[0] == "### T"
        assert "| x | y |" in md

    def test_float_formatting(self):
        t = Table("T", ["v"])
        t.add_row(0.0)
        t.add_row(1234567.0)
        t.add_row(0.000001)
        rendered = t.render()
        assert "1.23e+06" in rendered and "1e-06" in rendered

    def test_stack(self):
        a = Table("A", ["x"])
        b = Table("B", ["x"])
        assert "A" in Table.stack([a, b]) and "B" in Table.stack([a, b])


class TestRegistry:
    def test_all_ids_have_descriptions_and_callables(self):
        for key, (desc, fn) in EXPERIMENTS.items():
            assert isinstance(desc, str) and desc
            assert callable(fn)

    def test_expected_ids_present(self):
        expected = {"F1", "F2", "F3", "T1", "C1", "C2", "S1", "A1", "R1",
                    "B1", "B2", "X1", "M1", "CAV1", "D1", "DY1", "SQ1", "SP1"}
        assert expected == set(EXPERIMENTS)


@functools.cache
def table(key: str) -> Table:
    """Experiment ``key`` at its default parameters (one run per session)."""
    return EXPERIMENTS[key][1]()


def claim_f1(t: Table) -> None:
    assert all(m == "yes" for m in t.column("match"))


def claim_f2(t: Table) -> None:
    for x, kids, grand, droot in t.rows:
        assert kids == [2 * x, 2 * x + 1]
        assert grand == [4 * x, 4 * x + 1, 4 * x + 2, 4 * x + 3]
        assert droot == x
    assert "0 index inheritance violations" in t.notes[-1]


def claim_f3(t: Table) -> None:
    rows = {r[0]: r[2] for r in t.rows}
    assert rows["hat levels (dim 1)"] == 3
    assert rows["primary-hat leaves"] == 8
    assert rows["points per forest element"] == 8
    assert rows["descendant trees of hat nodes (points)"] == [64, 32, 32, 16, 16, 16, 16]
    counts = rows["forest elements per processor"]
    assert max(counts) == min(counts)


def claim_t1(t: Table) -> None:
    hat = t.column("hat nodes")
    bound = t.column("bound 4p·(log p+1)^(d-1)")
    assert all(h <= b for h, b in zip(hat, bound)), "hat exceeds Theorem 1 bound"
    assert all(r <= 2.0 for r in t.column("max/min")), "forest groups imbalanced"


def claim_c1(t: Table) -> None:
    rounds_by_d, ratios_by_d = defaultdict(set), defaultdict(list)
    for d, rounds, ratio in zip(t.column("d"), t.column("rounds"), t.column("work/(s/p)")):
        rounds_by_d[d].add(rounds)
        ratios_by_d[d].append(ratio)
    for d, rounds in rounds_by_d.items():
        assert len(rounds) == 1, f"d={d}: rounds varied with n: {rounds}"
    # work/(s/p) flat within 3x per dimension (Θ(s/p))
    for d, ratios in ratios_by_d.items():
        assert max(ratios) <= 3 * min(ratios), f"d={d}: work not Θ(s/p): {ratios}"


def claim_c2(t: Table) -> None:
    work = t.column("max work")
    assert all(a > b for a, b in zip(work, work[1:])), "work must shrink with p"
    # p=16 vs p=2 should give at least ~3x
    assert work[0] / work[-1] >= 3.0
    rounds = set(t.column("rounds"))
    assert len(rounds) == 1, f"rounds varied with p: {rounds}"


def claim_cav1(t: Table) -> None:
    for n, d, p, phase, records, theory in t.rows:
        assert records == theory, (
            f"phase {phase} (n={n}, d={d}, p={p}): sorted {records}, theory {theory}"
        )
        if phase == 0:
            assert records == n


def claim_s1(t: Table) -> None:
    rounds = set(t.column("rounds"))
    assert len(rounds) == 1, f"rounds varied with n: {rounds}"
    ratios = t.column("work/(s·log n/p)")
    assert max(ratios) <= 3 * min(ratios), f"work not Θ(s log n / p): {ratios}"
    # per-processor subquery load stays within 2x of |Q'|/p
    for load, share in zip(t.column("max subq/proc"), t.column("Q'/p")):
        assert load <= 2 * share + 8


def claim_a1(t: Table) -> None:
    assert all(v == "yes" for v in t.column("answers checked"))
    rounds = set(t.column("rounds"))
    assert len(rounds) == 1, "count and sum modes must share the round budget"


def claim_r1(t: Table) -> None:
    assert all(v == "yes" for v in t.column("balanced"))
    rounds = set(t.column("rounds"))
    assert len(rounds) == 1, "report round budget must not depend on k"


def claim_m1(t: Table) -> None:
    rows = {(r[0], r[1]): dict(zip(t.columns, r)) for r in t.rows}
    hot_direct = rows[("hotspot", "direct")]
    hot_doubling = rows[("hotspot", "doubling")]
    uni = rows[("uniform 1%", "doubling")]
    # the hotspot forces replication
    assert hot_doubling["max c_j"] >= uni["max c_j"]
    # per-proc subquery load stays near |Q'|/p even under the hotspot
    assert hot_doubling["max subq/proc"] <= 2 * hot_doubling["Q'/p"] + 8
    # doubling trades rounds for bounded h: same or more rounds, same or less h
    assert hot_doubling["rounds"] >= hot_direct["rounds"]
    assert hot_doubling["max h"] <= hot_direct["max h"]


def claim_b1(t: Table) -> None:
    ns = t.column("n")
    rt = t.column("RT visits/q")
    kd = t.column("kD visits/q")
    # both grow, but the range tree grows slower: per-16x-n growth factor
    rt_growth = rt[-1] / rt[0]
    kd_growth = kd[-1] / kd[0]
    assert ns[-1] // ns[0] == 16
    assert rt_growth < kd_growth * 1.5  # polylog vs polynomial, modest n regime
    # range-tree visit growth is consistent with log^2: < 8x for 16x points
    assert rt_growth < 8


def claim_b2(t: Table) -> None:
    ratios = t.column("ratio")
    # the saved factor grows with n (shape of the log n claim)
    assert ratios == sorted(ratios), f"visit ratio must grow with n: {ratios}"
    assert ratios[-1] > ratios[0]


def claim_x1(t: Table) -> None:
    rounds = set(t.column("rounds"))
    assert len(rounds) == 1, f"sort rounds varied with N: {rounds}"
    assert all(v == "yes" for v in t.column("sorted+balanced"))
    assert all(r <= 2.0 for r in t.column("h/(N/p)"))


def claim_d1(t: Table) -> None:
    assert all(v == "yes" for v in t.column("answers agree"))
    # the footnote: one record per point vs a structure of s = n·(log n + 1)
    for n, dom, rt in zip(t.column("n"), t.column("dominance records"), t.column("range tree records")):
        assert dom == n
        assert rt >= n * n.bit_length()


def claim_dy1(t: Table) -> None:
    rebuilt = t.column("rebuilt points total")
    bound = t.column("bound n·(log2 n + 1)")
    assert all(r <= b for r, b in zip(rebuilt, bound))
    assert all(v == "yes" for v in t.column("query ok"))


def claim_sq1(t: Table) -> None:
    assert all(v == "yes" for v in t.column("count ok"))
    assert len(set(t.column("rounds"))) == 1


def claim_sp1(t: Table) -> None:
    fast = t.column("speedup (fast interconnect)")
    cluster = t.column("speedup (commodity cluster)")
    wan = t.column("speedup (high-latency WAN)")
    # fast network: speedup keeps growing with p
    assert all(b > a for a, b in zip(fast, fast[1:]))
    # a better network never yields a *worse* speedup
    assert all(f >= c >= w for f, c, w in zip(fast, cluster, wan))
    # the WAN personality must show the flattening the cost model predicts
    assert wan[-1] < 2.0


#: Experiment id -> the shape assertions its table must satisfy.
CLAIMS = {
    "F1": claim_f1,
    "F2": claim_f2,
    "F3": claim_f3,
    "T1": claim_t1,
    "C1": claim_c1,
    "C2": claim_c2,
    "S1": claim_s1,
    "A1": claim_a1,
    "R1": claim_r1,
    "B1": claim_b1,
    "B2": claim_b2,
    "X1": claim_x1,
    "M1": claim_m1,
    "CAV1": claim_cav1,
    "D1": claim_d1,
    "DY1": claim_dy1,
    "SQ1": claim_sq1,
    "SP1": claim_sp1,
}


class TestClaims:
    def test_every_experiment_has_a_claim_check(self):
        assert set(CLAIMS) == set(EXPERIMENTS)

    @pytest.mark.parametrize("key", sorted(EXPERIMENTS))
    def test_claim(self, key):
        CLAIMS[key](table(key))

    def test_tables_render_identically_run_to_run(self, capsys):
        """Exact counters only: a second full run — through the CLI —
        prints byte for byte what the first run's tables render to, and
        both are the committed golden output."""
        first = Table.stack([table(key) for key in EXPERIMENTS])
        assert main(["experiments"]) == 0
        assert capsys.readouterr().out.rstrip("\n") == first
        assert first == GOLDEN.read_text(encoding="utf-8").rstrip("\n")


class TestFastDrivers:
    """Shrunken inputs the default parameters do not cover."""

    def test_f3_small_params(self):
        t = run_f3(n=32, p=4)
        rows = {r[0]: r[2] for r in t.rows}
        assert rows["primary-hat leaves"] == 4
        assert rows["points per forest element"] == 8

    def test_sq1_all_correct(self):
        t = run_sq1(n=256, p=4)
        assert all(v == "yes" for v in t.column("count ok"))
