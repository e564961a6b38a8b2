"""Scale gauntlet: Figure-1-class MM-vs-IM runs at 1k–50k servers.

The kernel's reason to exist: run the paper's synchronization dynamics on a
planet-scale stratum hierarchy (:func:`repro.network.topology.
stratum_hierarchy`) and check that the paper's *laws* survive the scale-up:

* **Lemma 1** — between resets an error bound grows at the drift ceiling
  ``δ``; no stratum's mean error may grow faster than ``δ_stratum · τ`` per
  cycle once the service reaches steady state.
* **Theorem 8** — intersecting all neighbour replies (rule IM-2) yields an
  expected error no worse than adopting the best single master (rule MM-2);
  the gauntlet compares matched MM and IM arms per size and seed.
* **Consistency** — every pair of neighbouring interval estimates should
  mutually intersect (the paper's Section 4 consistency relation); the
  census runs :func:`repro.kernel.marzullo_vec.intersect_tolerating_vec`
  over every server's stacked neighbour intervals at once, which at 10k+
  servers is itself a kernel workload (and exercises the ragged-row path,
  since strata have different degrees).

Each run reports throughput (events/sec) so the scale trajectory is visible
next to the `BENCH_engine.json` arms.  Runs use the bulk kernel; shard and
process counts are parameters so the nightly soak exercises the exchange
path too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

import numpy as np

from ..core.im import IMPolicy
from ..core.mm import MMPolicy
from ..kernel import build_kernel_service, intersect_tolerating_vec
from ..network.delay import UniformDelay
from ..network.topology import stratum_hierarchy, stratum_of
from ..service.builder import ServerSpec
from . import gauntlet

__all__ = [
    "StratumReport",
    "ScaleRunOutcome",
    "build_specs",
    "run_scale",
    "evaluate",
    "GAUNTLET",
]

BASE_DELTA = 1e-5  # stratum-1 drift ceiling; deeper strata drift worse
BASE_ERROR = 1e-3  # stratum-1 initial error bound (seconds)
ONE_WAY = 0.01  # uniform one-way delay bound (xi = 0.02 s)
DEFAULT_TAU = 60.0
DEFAULT_CYCLES = 8


@dataclass(frozen=True)
class StratumReport:
    """Per-stratum error statistics for one run."""

    stratum: int
    servers: int
    mean_error: float
    max_error: float
    growth_per_tau: float  # measured steady-state growth, s per cycle
    lemma1_ceiling: float  # delta_stratum * tau — the unsynchronized rate
    ok: bool  # growth_per_tau <= lemma1_ceiling (+ float slack)


@dataclass(frozen=True)
class ScaleRunOutcome:
    """One (size, policy, seed) cell of the gauntlet."""

    size: int
    policy: str
    seed: int
    shards: int
    processes: int
    tau: float
    cycles_done: int
    events: int
    wall_seconds: float
    events_per_sec: float
    mean_error: float
    max_error: float
    census_fraction: float  # servers whose neighbour intervals all intersect
    state_digest: int
    strata: List[StratumReport] = field(default_factory=list)

    @property
    def growth_ok(self) -> bool:
        return all(s.ok for s in self.strata)


def build_specs(graph) -> List[ServerSpec]:
    """Per-stratum specs: deeper strata have worse oscillators and start
    with larger inherited error, the Section 5 stratum picture."""
    specs = []
    for idx, name in enumerate(sorted(graph.nodes)):
        stratum = stratum_of(name)
        delta = BASE_DELTA * stratum
        skew = ((-1) ** idx) * 0.8 * delta * ((idx % 11) + 1) / 11.0
        specs.append(
            ServerSpec(
                name=name,
                delta=delta,
                skew=skew,
                initial_error=BASE_ERROR * stratum,
            )
        )
    return specs


def _census(graph, snapshot) -> float:
    """Fraction of servers whose neighbour intervals mutually intersect.

    Stacks each server's neighbour intervals ``<C_j − E_j, C_j + E_j>`` as
    one ragged batch and runs the zero-fault tolerant intersection over all
    rows at once.
    """
    names = sorted(graph.nodes)
    degrees = {name: len(list(graph.neighbors(name))) for name in names}
    max_deg = max(degrees.values())
    lo = np.zeros((len(names), max_deg))
    hi = np.zeros((len(names), max_deg))
    valid = np.zeros((len(names), max_deg), dtype=bool)
    for i, name in enumerate(names):
        for q, nbr in enumerate(sorted(graph.neighbors(name))):
            value = snapshot.values[nbr]
            error = snapshot.errors[nbr]
            lo[i, q] = value - error
            hi[i, q] = value + error
            valid[i, q] = True
    batch = intersect_tolerating_vec(lo, hi, faults=0, valid=valid)
    return float(batch.ok.mean())


def run_scale(
    size: int,
    policy_name: str,
    seed: int,
    *,
    shards: int = 4,
    processes: int = 0,
    tau: float = DEFAULT_TAU,
    cycles: int = DEFAULT_CYCLES,
) -> ScaleRunOutcome:
    """Run one cell: a ``size``-server stratum hierarchy under MM or IM."""
    policy = MMPolicy() if policy_name.upper() == "MM" else IMPolicy()
    graph = stratum_hierarchy(size)
    specs = build_specs(graph)
    horizon = cycles * tau
    mid = (cycles // 2) * tau
    service = build_kernel_service(
        graph,
        specs,
        policy=policy,
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(ONE_WAY),
        mode="bulk",
        shards=shards,
        processes=processes,
        trace_enabled=False,
    )
    try:
        start = time.perf_counter()
        service.run_until(mid)
        mid_snapshot = service.snapshot()
        service.run_until(horizon)
        wall = time.perf_counter() - start
        snapshot = service.snapshot()
        digest = service.state_digest()
        cycles_done = service.cycles_done
        events = service.events_processed
    finally:
        service.close()

    by_stratum: Dict[int, List[str]] = {}
    for name in snapshot.values:
        by_stratum.setdefault(stratum_of(name), []).append(name)
    elapsed_cycles = max(1.0, (horizon - mid) / tau)
    strata = []
    for stratum in sorted(by_stratum):
        members = by_stratum[stratum]
        errors = [snapshot.errors[name] for name in members]
        mid_errors = [mid_snapshot.errors[name] for name in members]
        growth = (float(np.mean(errors)) - float(np.mean(mid_errors))) / elapsed_cycles
        ceiling = BASE_DELTA * stratum * tau
        strata.append(
            StratumReport(
                stratum=stratum,
                servers=len(members),
                mean_error=float(np.mean(errors)),
                max_error=float(np.max(errors)),
                growth_per_tau=growth,
                lemma1_ceiling=ceiling,
                ok=growth <= ceiling * (1.0 + 1e-9) + 1e-12,
            )
        )
    errors = np.array([snapshot.errors[name] for name in snapshot.values])
    return ScaleRunOutcome(
        size=size,
        policy=policy_name.upper(),
        seed=seed,
        shards=shards,
        processes=processes,
        tau=tau,
        cycles_done=cycles_done,
        events=events,
        wall_seconds=wall,
        events_per_sec=events / wall if wall > 0 else 0.0,
        mean_error=float(errors.mean()),
        max_error=float(errors.max()),
        census_fraction=_census(graph, snapshot),
        state_digest=digest,
        strata=strata,
    )


def _run(size: int, policy: str, seed: int, *, telemetry=None, **params):
    return run_scale(size, policy, seed, **params)


def _theorem8(outcomes: Sequence[ScaleRunOutcome]) -> List[Dict[str, object]]:
    """Theorem 8 per matched (size, seed): IM's mean error against MM's."""
    mm = {(o.size, o.seed): o.mean_error for o in outcomes if o.policy == "MM"}
    im = {(o.size, o.seed): o.mean_error for o in outcomes if o.policy == "IM"}
    return [
        {
            "size": size,
            "seed": seed,
            "mm_mean_error": mm[size, seed],
            "im_mean_error": im[size, seed],
            "im_no_worse": im[size, seed] <= mm[size, seed],
        }
        for size, seed in mm
        if (size, seed) in im
    ]


def evaluate(outcomes: Sequence[ScaleRunOutcome]) -> List[str]:
    """The acceptance criteria, as a list of failures (empty = pass).

    Every run needs a neighbour-interval census of at least 99% and no
    stratum growing its mean error faster than the Lemma 1 drift
    ceiling; every matched (size, seed) pair needs IM's mean error no
    worse than MM's (Theorem 8).
    """
    problems: List[str] = []
    for o in outcomes:
        where = f"{o.size} servers {o.policy} seed {o.seed}"
        if o.census_fraction < 0.99:
            problems.append(f"{where}: census {o.census_fraction:.3f} < 0.99")
        fast = [stratum.stratum for stratum in o.strata if not stratum.ok]
        if fast:
            problems.append(f"{where}: strata {fast} outgrew the Lemma 1 ceiling")
    for row in _theorem8(outcomes):
        if not row["im_no_worse"]:
            problems.append(
                f"{row['size']} servers seed {row['seed']}: IM mean error "
                f"{row['im_mean_error']:.3g}s above MM's {row['mm_mean_error']:.3g}s"
            )
    return problems


def _check(sizes, *, shards: int, processes: int, **_: Any):
    if not sizes or any(size < 1 for size in sizes):
        return "--sizes must be positive"
    if shards < 1 or processes < 0:
        return "--shards must be >= 1 and --processes >= 0"
    return None


GAUNTLET = gauntlet.Gauntlet(
    name="scale-gauntlet",
    run=_run,
    cells=(1000, 10000),
    arms=("MM", "IM"),
    seeds=(0,),
    params={
        "shards": 4,
        "processes": 0,
        "tau": DEFAULT_TAU,
        "cycles": DEFAULT_CYCLES,
    },
    setting={"topology": "stratum_hierarchy"},
    check=_check,
    columns=(
        ("size", lambda o: o.size),
        ("policy", lambda o: o.policy),
        ("seed", lambda o: o.seed),
        ("cycles", lambda o: o.cycles_done),
        ("events", lambda o: o.events),
        ("events/s", lambda o: f"{o.events_per_sec:,.0f}"),
        ("mean E", lambda o: f"{o.mean_error * 1e3:.3f} ms"),
        ("max E", lambda o: f"{o.max_error * 1e3:.3f} ms"),
        ("census", lambda o: f"{o.census_fraction:.3f}"),
        ("growth ok", lambda o: "yes" if o.growth_ok else "NO"),
        ("digest", lambda o: f"{o.state_digest:08x}"),
    ),
    evaluate=evaluate,
    supplement=lambda outcomes, seeds, **_: (
        {"theorem8": _theorem8(outcomes)},
        [],
    ),
)


if __name__ == "__main__":
    raise SystemExit(gauntlet.main(GAUNTLET))
