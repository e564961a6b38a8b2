"""Dynamic-network gauntlet: local-skew guarantees under live topology churn.

The paper assumes a fixed, connected communication graph (Section 1.1
merely notes that "the set of time servers is not fixed").  The gradient
literature (Kuhn/Lenzen/Locher/Oshman, PAPERS.md) argues that once the
graph churns forever, the guarantee worth stating is the **local skew** —
the clock difference across edges that exist *right now* — because
applications coordinate with whoever is adjacent at the moment.

This gauntlet runs three synchronization arms over a sparse ring whose
edge set never stops moving — continuous edge churn
(:class:`~repro.dynamic.churn.EdgeChurnController`), optionally plus
waypoint mobility (:class:`~repro.dynamic.mobility.MobilityProcess`)
rewiring links by proximity — and reports:

* **the gradient arm holds a stated local-skew bound** that at least one
  plain arm violates.  In a reference-free symmetric population rule
  MM-2's adoption predicate never fires (every neighbour's error matches
  our own), so MM free-runs and adjacent clocks separate at the skew
  spread rate until the bound breaks; rules IM and gradient keep
  re-intersecting with the *current* neighbour set every round;
* **correctness is never traded**: the gradient reset point stays inside
  the rule IM-2 intersection (Theorem 5), so the strict invariant oracle
  (:class:`~repro.faults.monitor.InvariantMonitor` with no fault
  schedule — every server held to the invariants at all times, zero
  exemption windows) must report zero violations in every arm;
* **deterministic replay** — same seed, same trace digest.

The stated bound is ``ξ + 8·(2δ)·τ``: the intersection uncertainty a
single exchange leaves behind, plus eight poll periods' worth of
worst-case pairwise drift — generous headroom for an arm that actually
resynchronizes, hopeless for one that free-runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.im import IMPolicy
from ..core.mm import MMPolicy
from ..dynamic import (
    DynamicTopology,
    EdgeChurnController,
    GradientPolicy,
    LocalSkewMonitor,
    MobilityProcess,
    WaypointMobility,
)
from ..faults import attach_chaos
from ..network.delay import UniformDelay
from ..network.topology import ring
from ..service.builder import ServerSpec, SimulatedService, build_service
from ..simulation.trace import trace_digest
from ..telemetry import ServiceTelemetry
from . import gauntlet

#: The three arms: the paper's two rules plus the gradient selection.
ARMS = ("MM", "IM", "gradient")

#: Claimed maximum drift rate for every server (actual skews span ±0.7δ).
DELTA = 1e-4

#: One-way delay bound; ξ (the paper's round-trip uncertainty) is twice it.
ONE_WAY = 0.01
XI = 2.0 * ONE_WAY


def local_skew_bound(tau: float) -> float:
    """The gauntlet's stated local-skew bound: ``ξ + 8·(2δ)·τ``."""
    return XI + 8.0 * (2.0 * DELTA) * tau


@dataclass(frozen=True)
class GauntletCell:
    """One (edge-churn rate × mobility) configuration of the matrix.

    Attributes:
        label: Short name used in tables and artefact paths.
        churn_interval: Mean seconds between edge-removal attempts.
        mobility: Whether waypoint mobility also rewires the graph.
    """

    label: str
    churn_interval: float
    mobility: bool


#: Default matrix cells: churn alone, churn with mobility, fast churn
#: with mobility.  Every cell keeps the graph perpetually in motion.
CELLS = (
    GauntletCell("churn", 120.0, False),
    GauntletCell("churn+mob", 120.0, True),
    GauntletCell("fastchurn+mob", 45.0, True),
)


@dataclass(frozen=True)
class GauntletOutcome:
    """One (arm, cell, seed) run.

    Attributes:
        arm: "MM", "IM", or "gradient".
        cell: The matrix cell's label.
        seed: Root seed (service RNG, churn draws, mobility waypoints).
        churn_interval: Mean seconds between edge-removal attempts.
        mobility: Whether waypoint mobility ran.
        horizon: Simulated seconds.
        bound: The stated local-skew bound (seconds).
        trace_digest: Fingerprint of the full run trace.
        edges_removed: Edges taken out by churn.
        edges_restored: Edges brought back by churn.
        churn_refused: Removals vetoed by the connectivity guard.
        rewires: Mobility rewires that changed the edge set.
        skew_samples: Live-edge skew samples taken.
        skew_breaches: Samples above the bound (gradient must score 0).
        max_local_skew: Largest live-edge skew observed (seconds).
        checks: Invariant-oracle sweeps performed.
        violations: Invariant violations (strict oracle, no exemption
            windows — must be 0).
        exemptions: Oracle server-checks skipped (expected 0: nothing
            crashes or departs in this gauntlet).
        final_max_error: Largest error bound at the end of the run.
    """

    arm: str
    cell: str
    seed: int
    churn_interval: float
    mobility: bool
    horizon: float
    bound: float
    trace_digest: int
    edges_removed: int
    edges_restored: int
    churn_refused: int
    rewires: int
    skew_samples: int
    skew_breaches: int
    max_local_skew: float
    checks: int
    violations: int
    exemptions: int
    final_max_error: float


def _policy(arm: str):
    if arm == "MM":
        return MMPolicy()
    if arm == "IM":
        return IMPolicy()
    if arm == "gradient":
        return GradientPolicy()
    raise ValueError(f"unknown arm {arm!r}; expected one of {ARMS}")


def _build(arm: str, seed: int, *, n: int, tau: float, telemetry=None) -> SimulatedService:
    # A sparse ring, deliberately: local skew is a statement about
    # *edges*, and a ring has no shortcuts for free.  No reference
    # server — the arms must hold the bound among themselves.
    graph = ring(n)
    names = sorted(graph.nodes)
    specs = [
        ServerSpec(
            name,
            delta=DELTA,
            skew=(k - (n - 1) / 2) * 2e-5,
            initial_error=0.05,
        )
        for k, name in enumerate(names)
    ]
    return build_service(
        graph,
        specs,
        policy=_policy(arm),
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(ONE_WAY),
        wan_delay=UniformDelay(ONE_WAY),
        telemetry=telemetry,
    )


def run_gauntlet(
    arm: str = "gradient",
    seed: int = 0,
    *,
    churn_interval: float = 120.0,
    mobility: bool = True,
    cell_label: Optional[str] = None,
    n: int = 8,
    tau: float = 30.0,
    horizon: float = 1800.0,
    monitor_period: float = 5.0,
    telemetry=None,
) -> GauntletOutcome:
    """One arm under one dynamic-topology configuration.

    Args:
        arm: "MM", "IM", or "gradient".
        seed: Root seed; drives the service RNG registry, from which the
            churn and mobility streams are derived — one seed fixes the
            whole run.
        churn_interval: Mean seconds between edge-removal attempts.
        mobility: Attach waypoint mobility (proximity rewiring).
        cell_label: Label recorded on the outcome (defaults to a
            synthesized one).
        telemetry: Optional :class:`~repro.telemetry.ServiceTelemetry`;
            its registry also receives the invariant-oracle counters and
            the live ``repro_edge_local_skew_seconds`` series.
    """
    service = _build(arm, seed + 100, n=n, tau=tau, telemetry=telemetry)
    bound = local_skew_bound(tau)
    dynamic = DynamicTopology.for_service(service)
    churn = EdgeChurnController(
        service.engine,
        dynamic,
        service.rng.stream("dynamic/edge-churn"),
        interval=churn_interval,
        mean_downtime=churn_interval * 0.75,
    )
    mob: Optional[MobilityProcess] = None
    if mobility:
        model = WaypointMobility(
            sorted(service.servers), service.rng.stream("dynamic/mobility")
        )
        mob = MobilityProcess(service.engine, dynamic, model)
    skew = LocalSkewMonitor(
        service.engine, service, bound=bound, period=monitor_period
    )
    churn.start()
    if mob is not None:
        mob.start()
    skew.start()
    # strict, no schedule: the oracle holds every server to the
    # invariants at all times — churn earns no exemptions.
    _, oracle = attach_chaos(service, monitor_period=monitor_period, strict=True)
    service.run_until(horizon)
    snap = service.snapshot()
    return GauntletOutcome(
        arm=arm,
        cell=cell_label
        or f"churn{churn_interval:g}{'+mob' if mobility else ''}",
        seed=seed,
        churn_interval=churn_interval,
        mobility=mobility,
        horizon=horizon,
        bound=bound,
        trace_digest=trace_digest(service.trace),
        edges_removed=churn.stats.removed,
        edges_restored=churn.stats.restored,
        churn_refused=churn.stats.refused,
        rewires=dynamic.stats.rewires,
        skew_samples=skew.stats.samples,
        skew_breaches=skew.stats.breaches,
        max_local_skew=skew.stats.max_skew,
        checks=oracle.stats.checks,
        violations=oracle.stats.total_violations,
        exemptions=oracle.stats.exemptions,
        final_max_error=snap.max_error,
    )


def _run(cell: GauntletCell, arm: str, seed: int, **params) -> GauntletOutcome:
    return run_gauntlet(
        arm,
        seed,
        churn_interval=cell.churn_interval,
        mobility=cell.mobility,
        cell_label=cell.label,
        **params,
    )


def evaluate(outcomes: Sequence[GauntletOutcome]) -> List[str]:
    """The acceptance criteria, as a list of failures (empty = pass).

    * the gradient arm holds the bound (zero breaches) in every cell and
      seed, with zero invariant violations;
    * in every (cell, seed), at least one plain arm breaches the bound —
      the guarantee is not vacuous.
    """
    problems: List[str] = []
    keys = sorted({(o.cell, o.seed) for o in outcomes})
    for cell, seed in keys:
        runs = {o.arm: o for o in outcomes if (o.cell, o.seed) == (cell, seed)}
        grad = runs.get("gradient")
        if grad is not None:
            if grad.skew_breaches:
                problems.append(
                    f"{cell} seed {seed}: gradient breached the bound "
                    f"{grad.skew_breaches} time(s) "
                    f"(max {grad.max_local_skew:.4f}s > {grad.bound:.4f}s)"
                )
            if grad.violations:
                problems.append(
                    f"{cell} seed {seed}: gradient saw "
                    f"{grad.violations} invariant violation(s)"
                )
        plain = [runs[a] for a in ("MM", "IM") if a in runs]
        if plain and not any(o.skew_breaches for o in plain):
            problems.append(
                f"{cell} seed {seed}: no plain arm breached the bound "
                f"(nothing for the gradient arm to beat)"
            )
    return problems


GAUNTLET = gauntlet.Gauntlet(
    name="dynamic-gauntlet",
    run=_run,
    cells=CELLS,
    arms=ARMS,
    params={"horizon": 1800.0, "tau": 30.0},
    setting={"topology": "ring(8)"},
    columns=(
        ("cell", lambda o: o.cell),
        ("arm", lambda o: o.arm),
        ("seed", lambda o: o.seed),
        ("edges -/+", lambda o: f"{o.edges_removed}/{o.edges_restored}"),
        ("rewires", lambda o: o.rewires),
        ("samples", lambda o: o.skew_samples),
        ("breaches", lambda o: o.skew_breaches),
        ("max skew ms", lambda o: f"{o.max_local_skew * 1e3:.1f}"),
        ("viol", lambda o: o.violations),
        ("exempt", lambda o: o.exemptions),
        ("trace digest", lambda o: f"{o.trace_digest:08x}"),
    ),
    evaluate=evaluate,
    telemetry=lambda tau, **_: ServiceTelemetry(
        spans=False, sample_period=tau, local_skew_bound=local_skew_bound(tau)
    ),
    summary=(
        "arm",
        "cell",
        "seed",
        "bound",
        "skew_breaches",
        "max_local_skew",
        "violations",
    ),
)


if __name__ == "__main__":
    raise SystemExit(gauntlet.main(GAUNTLET))
