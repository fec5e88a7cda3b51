"""Static analysis: the ``repro lint`` invariant checkers.

This package holds :mod:`repro.analysis.lint` only.  A workload's
per-query filter and verify figures (candidates, lists probed, answers,
times) come from :func:`repro.bench.measure_workload`.
"""
