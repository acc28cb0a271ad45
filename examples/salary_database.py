#!/usr/bin/env python3
"""Database scenario: orthogonal range statistics in associative-function mode.

The range search literature's canonical database query: "employees aged
30-40 with 5-15 years of tenure — how many, and what is their average and
spread of salary?"  Records are 3-d points (age, tenure, salary); each
analyst question is an orthogonal range, and the *associative-function
mode* of the paper answers a whole batch with one distributed pass, using
the (count, Σsalary, Σsalary²) moments semigroup — mean and variance drop
out without ever shipping the raw records anywhere.

Run:  python examples/salary_database.py
"""

import math

import numpy as np

from repro import Box, DistributedRangeTree, PointSet, aggregate
from repro.semigroup import moments_of_dim

P = 8
SALARY_DIM = 2  # (age, tenure, salary)


def make_employees(n: int, seed: int) -> PointSet:
    rng = np.random.default_rng(seed)
    age = rng.uniform(21, 65, n)
    tenure = np.minimum(rng.exponential(7, n), age - 18)
    salary = 30_000 + 2_500 * tenure + 600 * (age - 21) + rng.normal(0, 8_000, n)
    return PointSet(np.stack([age, tenure, salary], axis=1))


def main() -> None:
    employees = make_employees(n=1500, seed=3)
    tree = DistributedRangeTree.build(
        employees, p=P, semigroup=moments_of_dim(SALARY_DIM)
    )
    print(f"indexed {employees.n} employee records (age, tenure, salary) on {P} procs")

    # a batch of analyst questions: age bands x tenure bands, all salaries
    questions = []
    labels = []
    for lo_age, hi_age in [(21, 30), (30, 40), (40, 50), (50, 65)]:
        for lo_ten, hi_ten in [(0, 5), (5, 15), (15, 45)]:
            questions.append(
                Box([(lo_age, hi_age), (lo_ten, hi_ten), (0.0, 10**7)])
            )
            labels.append(f"age {lo_age}-{hi_age}, tenure {lo_ten}-{hi_ten}")

    stats = tree.run([aggregate(q) for q in questions]).values()
    print(f"\nanswered {len(questions)} statistics queries in "
          f"{tree.metrics.rounds} communication rounds\n")
    print(f"{'cohort':32} {'count':>6} {'mean salary':>12} {'stddev':>10}")
    for label, (cnt, s, ss) in zip(labels, stats):
        if cnt == 0:
            print(f"{label:32} {0:>6} {'-':>12} {'-':>10}")
            continue
        mean = s / cnt
        var = max(0.0, ss / cnt - mean * mean)
        print(f"{label:32} {cnt:>6} {mean:>12.0f} {math.sqrt(var):>10.0f}")

    # sanity: the cohort counts must add up to the workforce
    total = sum(cnt for cnt, _s, _ss in stats)
    print(f"\ncohort counts sum to {total} (workforce {employees.n}; "
          f"cohorts partition age x tenure, so they must match)")
    assert total == employees.n


if __name__ == "__main__":
    main()
