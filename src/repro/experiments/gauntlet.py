"""One gauntlet runner: the matrix, the report and the verdict.

Every gauntlet checks the paper's invariants under one kind of adversity
— rule MM-1 correctness, consistency of intervals and, in the dynamic
gauntlet, the local-skew bound.  Each gauntlet module keeps its own run
body, outcome dataclass and ``evaluate``, and declares a
:class:`Gauntlet`.  This module is the only code that knows the
(cell × arm × seed) iteration order, the per-run telemetry bundle
directories, the deterministic-replay check, the results table, the JSON
report envelope, and how the FAIL list becomes a verdict and an exit
code.  EXPERIMENTS.md, "Adding a gauntlet", walks through a declaration.
"""

from __future__ import annotations

import json as json_module
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.plots import render_table

#: Telemetry bundle directory of one run under ``--telemetry-out``, for
#: gauntlets with cells, for those without, and for the live plane (whose
#: sink writes one ``<node>.prom`` per node process).
CELL_BUNDLE = "{cell}-{arm}-seed{seed}"
ARM_BUNDLE = "{arm}-seed{seed}"
NODE_BUNDLE = "{arm}"

#: One results-table column: its header and how an outcome fills it.
Column = Tuple[str, Callable[[Any], object]]


class BadArguments(ValueError):
    """Input a gauntlet refuses to run with (exit code 2)."""


def _accept(cells, **params) -> Optional[str]:
    return None


def _nothing(outcomes, seeds, **params) -> Tuple[Dict[str, Any], List[str]]:
    return {}, []


@dataclass(frozen=True)
class Gauntlet:
    """One gauntlet's declaration.  Every hook receives the run
    parameters (:attr:`params`, overridden per call) as keywords.

    Attributes:
        name: Registry key, and the report's ``experiment``.
        run: ``run(cell, arm, seed, *, telemetry, **params)`` → one
            outcome dataclass.  Outcomes carrying a ``trace_digest`` get
            the replay check.
        arms, cells, seeds: The default matrix; ``cells=(None,)`` for a
            gauntlet without cells.
        columns: The results table.
        evaluate: Outcomes → acceptance failures.
        params: Default run parameters.
        setting: Fixed set-up, printed and reported under ``params``.
        check: ``check(cells, **params)`` → why the input is refused.
        telemetry: ``telemetry(**params)`` → a fresh per-run sink with
            ``write(directory, summary_extra=...)``, written to
            ``bundle`` with the outcome's ``summary`` fields.
        supplement: ``supplement(outcomes, seeds, **params)`` → extra
            top-level report keys and failures, for a side body that
            does not fit the matrix; may print its own table.
    """

    name: str
    run: Callable[..., Any]
    arms: Sequence[str]
    columns: Sequence[Column]
    evaluate: Callable[[Sequence[Any]], List[str]]
    cells: Sequence[Any] = (None,)
    seeds: Sequence[int] = (0, 1, 2)
    params: Mapping[str, Any] = field(default_factory=dict)
    setting: Mapping[str, Any] = field(default_factory=dict)
    check: Callable[..., Optional[str]] = _accept
    telemetry: Optional[Callable[..., Any]] = None
    bundle: str = CELL_BUNDLE
    summary: Sequence[str] = ()
    supplement: Callable[..., Tuple[Dict[str, Any], List[str]]] = _nothing


def _label(cell: Any) -> str:
    return str(getattr(cell, "label", cell))


def table(columns: Sequence[Column], outcomes: Sequence[Any]) -> str:
    """The results table: one row per outcome."""
    return render_table(
        [header for header, _ in columns],
        [[cell(outcome) for _, cell in columns] for outcome in outcomes],
    )


def run_matrix(
    g: Gauntlet,
    *,
    cells: Optional[Sequence[Any]] = None,
    arms: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
    telemetry_out: Optional[str] = None,
    **params: Any,
) -> List[Any]:
    """Every (cell, arm, seed) run, seed fastest; with ``telemetry_out``,
    each run's sink is written to its bundle directory."""
    params = {**g.params, **params}
    outcomes = []
    for cell in g.cells if cells is None else cells:
        for arm in g.arms if arms is None else arms:
            for seed in g.seeds if seeds is None else seeds:
                sink = None
                if telemetry_out and g.telemetry is not None:
                    sink = g.telemetry(**params)
                outcome = g.run(cell, arm, seed, telemetry=sink, **params)
                outcomes.append(outcome)
                if sink is not None:
                    name = g.bundle.format(cell=_label(cell), arm=arm, seed=seed)
                    sink.write(
                        os.path.join(telemetry_out, name),
                        summary_extra={k: getattr(outcome, k) for k in g.summary},
                    )
    return outcomes


def run(
    g: Gauntlet,
    *,
    seeds: Optional[Any] = None,
    cells: Optional[Sequence[Any]] = None,
    arms: Optional[Sequence[str]] = None,
    json: Optional[str] = None,
    telemetry_out: Optional[str] = None,
    **params: Any,
) -> bool:
    """Run the matrix, print the table, write the report to ``json``,
    and return the verdict.  An integer ``seeds`` means ``0..seeds-1``;
    ``params`` override the declaration's.  Raises :class:`BadArguments`
    on refused input, including any float parameter that is not positive."""
    if isinstance(seeds, int):
        seeds = range(seeds)
    seeds = list(g.seeds if seeds is None else seeds)
    cells = list(g.cells if cells is None else cells)
    arms = list(g.arms if arms is None else arms)
    params = {**g.params, **params}
    if not seeds:
        raise BadArguments("need at least one seed")
    for key, value in params.items():
        if isinstance(value, float) and value <= 0:  # durations and periods
            raise BadArguments(f"--{key} must be positive")
    refusal = g.check(cells, **params)
    if refusal:
        raise BadArguments(refusal)

    outcomes = run_matrix(
        g, cells=cells, arms=arms, seeds=seeds, telemetry_out=telemetry_out, **params
    )
    labels = [_label(cell) for cell in cells if cell is not None]
    setting = {**g.setting, **params}
    cells_x = f"cells {labels} x " if labels else ""
    print(f"{g.name}: {cells_x}arms {arms} x seeds {seeds}")
    print("  " + ", ".join(f"{key}={value}" for key, value in setting.items()))
    print(table(g.columns, outcomes))
    extra, problems = g.supplement(outcomes, seeds, **params)
    problems = g.evaluate(outcomes) + problems
    report: Dict[str, Any] = {
        "experiment": g.name,
        "params": {"cells": labels, "arms": arms, **setting},
        "seeds": seeds,
        "outcomes": [asdict(outcome) for outcome in outcomes],
        **extra,
    }
    if outcomes and hasattr(outcomes[0], "trace_digest"):
        # Deterministic replay: the first run again, byte-identical trace.
        first = outcomes[0].trace_digest
        again = g.run(cells[0], arms[0], seeds[0], telemetry=None, **params)
        report["replay_ok"] = again.trace_digest == first
        if not report["replay_ok"]:
            problems.append(
                f"replay of {_label(cells[0])}/{arms[0]}/seed {seeds[0]} "
                f"diverged: {again.trace_digest:08x} != {first:08x}"
            )
    report.update(ok=not problems, problems=problems)
    if json:
        with open(json, "w", encoding="utf-8") as handle:
            json_module.dump(report, handle, indent=2, sort_keys=True)
        print(f"\nwrote JSON report to {json}")
    print()
    for problem in problems:
        print(f"FAIL: {problem}")
    print(f"{g.name}: {'FAIL' if problems else 'PASS'} ({len(outcomes)} runs)")
    return not problems


def main(g: Gauntlet, **kwargs: Any) -> int:
    """:func:`run` as a process exit code: 0 pass, 1 fail, 2 refused."""
    try:
        return 0 if run(g, **kwargs) else 1
    except BadArguments as refusal:
        print(f"{g.name}: {refusal}", file=sys.stderr)
        return 2
