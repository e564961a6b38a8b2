"""Experiments — one module per paper figure, theorem, and anecdote.

Each module exposes ``run(...)`` returning a typed result object and a
``main()`` that prints the reproduced artefact — except the gauntlets,
which declare a ``GAUNTLET`` run by :mod:`.gauntlet`; the benchmark suite
under ``benchmarks/`` wraps these with pytest-benchmark.  See DESIGN.md §3 for
the experiment index and EXPERIMENTS.md for paper-vs-measured records.
"""

from . import (
    ablations,
    chaos_soak,
    churn,
    cold_start,
    correctness,
    delay_asymmetry,
    discipline,
    drift_recovery,
    dynamic_gauntlet,
    failures,
    figure1,
    figure2,
    figure3,
    figure3_liars,
    figure4,
    figure4_repair,
    flash_crowd,
    overhead,
    partition,
    quantization,
    scale_gauntlet,
    scenarios,
    tenfold,
    theorem4,
    topology_study,
    theorem8,
    theorem_bounds,
)

__all__ = [
    "ablations",
    "chaos_soak",
    "churn",
    "cold_start",
    "correctness",
    "delay_asymmetry",
    "discipline",
    "drift_recovery",
    "dynamic_gauntlet",
    "failures",
    "figure1",
    "figure2",
    "figure3",
    "figure3_liars",
    "figure4",
    "figure4_repair",
    "flash_crowd",
    "overhead",
    "partition",
    "quantization",
    "scale_gauntlet",
    "scenarios",
    "tenfold",
    "theorem4",
    "topology_study",
    "theorem8",
    "theorem_bounds",
]
