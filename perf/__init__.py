"""The repo's benchmark: five workloads, calibrated end-to-end metrics and a
traced per-layer budget.  Entry point: ``python3 perf/run.py`` (see README.md).
"""
