"""Shared benchmark configuration.

Every benchmark runs a full simulation sweep exactly once
(``benchmark.pedantic(..., rounds=1)``): the measured quantity of
interest is *virtual* time inside the simulation — printed as
paper-style tables/figures — while pytest-benchmark records the
wall-clock cost of regenerating each artefact.  Benchmarks write no
files: perf-trajectory records come only from ``perf_smoke.py`` and
``repro inspect --ledger-out``, each into the file it names.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""
