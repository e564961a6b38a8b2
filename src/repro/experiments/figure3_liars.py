"""Figure 3 with liars — plain IM collapses, FT-IM holds the line.

Figure 3's lesson is that algorithm IM *fails open*: a single incorrect
reply empties the round's intersection (starvation into recovery) or, if
the lie is subtle, drags the accepted region off the true time.  The
companion thesis already holds the repair — intersect tolerating up to
``f`` faults — and this experiment is the repo's adversarial gauntlet for
the server-side version of it.

Two liars run a scripted :class:`~repro.faults.ByzantineReplies` campaign
(offset lies with underreported errors, the most attractive kind to an
interval policy) against a five-server service, on three topologies:

* ``k5`` — the acceptance matrix: every honest server hears both liars,
  ``n = 5`` sources with ``f = 2`` liars, so ``2f < n`` holds and FT-IM
  must tolerate them outright;
* ``ring`` — each honest server hears at most one liar through a
  three-source round (``f = 1`` is the connectivity ceiling);
* ``random`` — a seeded ring-plus-chords graph in between.

Each cell compares two arms:

* **plain** — the paper's servers with :class:`~repro.core.im.IMPolicy`
  and :class:`~repro.core.recovery.ThirdServerRecovery`: every window
  round starves into recovery and a randomly chosen arbiter is a liar
  often enough that some honest server adopts the lie (a *poisoned*
  reset — oracle-incorrect afterwards);
* **ft** — :class:`~repro.byzantine.server.ByzantineTolerantServer` with
  a per-server :class:`~repro.core.ft_im.FTIMPolicy` driven by the
  adaptive :class:`~repro.byzantine.budget.FaultBudgetController`: rounds
  stay tolerant, the liars are classified, demoted from the poll set and
  vetoed as recovery arbiters, and the monitor sees zero violations
  outside the scheduled lying windows.

The per-arm scorecard (poisoned resets, oracle-incorrect samples,
monitor violations, demotion latency per honest-server/liar pair) is the
experiment's artefact; :data:`GAUNTLET` is what ``repro figure3-liars``
and the nightly liar soak run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..byzantine import FaultBudgetController
from ..core.ft_im import FTIMPolicy
from ..core.im import IMPolicy
from ..core.recovery import ThirdServerRecovery
from ..faults import ByzantineReplies, FaultSchedule, attach_chaos
from ..faults.monitor import InvariantMonitor
from ..network.delay import UniformDelay
from ..recovery import SelfStabilizingRecovery
from ..service.builder import ServerSpec, build_service
from . import gauntlet
from .scenarios import grid

#: Claimed bound for every server (~0.9 s/day).
CLAIMED_DELTA = 1e-5

#: The five servers; S4 and S5 are the scheduled liars.
NAMES = ("S1", "S2", "S3", "S4", "S5")

#: Liar campaign: value offset and error underreporting per liar.  The
#: liars *collude*: both lie in the same direction with overlapping
#: intervals, disjoint from the honest cluster.  Plain IM then starves
#: (the starvation face of Figure 3) and — the sharper failure — its
#: conflicting-pair attribution only ever flags the *larger* liar (the
#: max-trailing edge definer), so the second liar stays in the recovery
#: arbiter pool and the paper's "any third server" rule adopts the lie.
LIARS: Dict[str, float] = {"S4": +0.40, "S5": +0.33}
ERROR_SCALE = 0.2

#: Honest skews — everyone's clock is within the claim throughout; only
#: the *replies* of the liars are corrupted.
SKEWS = {"S1": +2e-6, "S2": -2e-6, "S3": +1e-6, "S4": -1e-6, "S5": +2e-6}

#: The lying window.
LIE_START = 300.0
LIE_DURATION = 600.0
LIE_END = LIE_START + LIE_DURATION

#: Poll period and run horizon (20 lying rounds, then a long clean tail
#: so redemption probing and post-window stability are visible).
TAU = 30.0
HORIZON = 1500.0

#: Slack when attributing a reset to an in-flight lie (matches the
#: monitor's default grace).
GRACE = 2.0


# ------------------------------------------------------------- topologies


def _k5() -> nx.Graph:
    return nx.complete_graph(NAMES)


def _ring() -> nx.Graph:
    graph = nx.Graph()
    graph.add_edges_from(zip(NAMES, NAMES[1:] + NAMES[:1]))
    return graph


def _random(seed: int) -> nx.Graph:
    """A seeded ring-plus-chords graph: connected, degree between the
    ring's 2 and K5's 4."""
    graph = _ring()
    rng = np.random.default_rng(seed)
    chords = [
        (a, b)
        for i, a in enumerate(NAMES)
        for b in NAMES[i + 1 :]
        if not graph.has_edge(a, b)
    ]
    for index in rng.choice(len(chords), size=2, replace=False):
        graph.add_edge(*chords[int(index)])
    return graph


def topology(name: str, seed: int) -> nx.Graph:
    """The named gauntlet topology (``k5``, ``ring`` or ``random``)."""
    if name == "k5":
        return _k5()
    if name == "ring":
        return _ring()
    if name == "random":
        return _random(seed)
    raise ValueError(f"unknown topology {name!r}")


def _liar_schedule() -> FaultSchedule:
    schedule = FaultSchedule()
    for liar, offset in LIARS.items():
        schedule.add(
            ByzantineReplies(
                at=LIE_START,
                server=liar,
                duration=LIE_DURATION,
                offset=offset,
                error_scale=ERROR_SCALE,
            )
        )
    return schedule


# ------------------------------------------------------------------ arms


@dataclass(frozen=True)
class DemotionRecord:
    """One honest-server/liar-neighbour pair's demotion outcome.

    Attributes:
        server: The honest server doing the demoting.
        liar: The lying neighbour.
        latency: Seconds from the lying window opening to the liar's
            first demotion from ``server``'s poll set; None if it was
            never demoted.
    """

    server: str
    liar: str
    latency: Optional[float]

    @property
    def demoted_in_window(self) -> bool:
        return self.latency is not None and self.latency <= LIE_DURATION


@dataclass(frozen=True)
class ArmResult:
    """One arm of one gauntlet cell, scored.

    Attributes:
        topology: The cell's topology name.
        seed: The cell's root seed.
        byzantine_tolerant: Which arm this is.
        total_resets: All resets over the run (direct and recovery).
        poisoned_resets: Resets on an *honest* server sourced (even
            partially) from a liar during the lying window — adopting
            the lie.
        recoveries: Recovery resets only.
        oracle_bad_samples: Sampled (time, honest server) pairs from the
            window start onward whose interval missed true time — the
            oracle's count of how wrong the service actually went.
        correctness_violations: Monitor correctness breaches outside
            fault windows and taint.
        consistency_violations: Same, for pairwise consistency.
        demotions: FT arm: one :class:`DemotionRecord` per honest
            server/liar-neighbour pair (empty for the plain arm).
        all_liars_demoted: FT arm: every pair demoted before the lying
            window closed; None for the plain arm.
        tolerant_rounds: FT arm: rounds accepted via a fault-tolerant
            intersection.
        plain_rounds: FT arm: rounds that fell back to plain IM-2.
        budget_raises: FT arm: adaptive budget step-ups across servers.
        validation_rejections: FT arm: replies rejected by the sanity or
            error-physics checks.
    """

    topology: str
    seed: int
    byzantine_tolerant: bool
    total_resets: int
    poisoned_resets: int
    recoveries: int
    oracle_bad_samples: int
    correctness_violations: int
    consistency_violations: int
    demotions: Tuple[DemotionRecord, ...]
    all_liars_demoted: Optional[bool]
    tolerant_rounds: int
    plain_rounds: int
    budget_raises: int
    validation_rejections: int

    @property
    def arm(self) -> str:
        return "ft" if self.byzantine_tolerant else "plain"


def _poisoned_resets(service, honest: set) -> Tuple[int, int, int]:
    """(total, recovery, poisoned) reset counts from the trace."""
    rows = service.trace.filter(kind="reset")
    recoveries = sum(
        1 for row in rows if row.data.get("reset_kind") == "recovery"
    )
    poisoned = 0
    for row in rows:
        if row.source not in honest:
            continue
        if not (LIE_START <= row.time <= LIE_END + GRACE):
            continue
        sources = InvariantMonitor.reset_sources(
            row.data.get("from_server", "")
        )
        if any(source in LIARS for source in sources):
            poisoned += 1
    return len(rows), recoveries, poisoned


def run(
    topology_name: str,
    byzantine_tolerant: bool,
    seed: int,
    tau: float = TAU,
    horizon: float = HORIZON,
) -> ArmResult:
    """Run one arm of one gauntlet cell."""
    graph = topology(topology_name, seed)
    specs = [
        ServerSpec(
            name,
            delta=CLAIMED_DELTA,
            skew=SKEWS[name],
            byzantine_tolerant=byzantine_tolerant,
        )
        for name in NAMES
    ]
    if byzantine_tolerant:
        policy = None
        policy_factory = lambda name: FTIMPolicy(  # noqa: E731
            fault_budget=FaultBudgetController()
        )
        # Deterministic arbiter choice: ties resolve to the first vetted
        # candidate, and the falseticker veto does the heavy lifting.
        recovery_factory = lambda name: SelfStabilizingRecovery()  # noqa: E731
    else:
        policy = IMPolicy()
        policy_factory = None
        # The paper's "any third server": random choice among the
        # candidates, which is exactly how a liar gets adopted.
        recovery_factory = lambda name: ThirdServerRecovery(  # noqa: E731
            rng=np.random.default_rng((seed, NAMES.index(name)))
        )
    service = build_service(
        graph,
        specs,
        policy=policy,
        policy_factory=policy_factory,
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(0.02),
        recovery_factory=recovery_factory,
        trace_enabled=True,
    )
    schedule = _liar_schedule()
    injector, monitor = attach_chaos(service, schedule)

    honest = {name for name in NAMES if name not in LIARS}
    oracle_bad = 0
    for t in grid(0.0, horizon, int(horizon / tau) + 1):
        service.run_until(t)
        snapshot = service.snapshot()
        if t >= LIE_START:
            oracle_bad += sum(
                1 for name in honest if not snapshot.correct[name]
            )

    total, recoveries, poisoned = _poisoned_resets(service, honest)

    demotions: List[DemotionRecord] = []
    all_demoted: Optional[bool] = None
    tolerant_rounds = plain_rounds = raises = rejections = 0
    if byzantine_tolerant:
        for name in sorted(honest):
            server = service.servers[name]
            stats = server.byzantine_stats
            tolerant_rounds += stats.tolerant_rounds
            plain_rounds += stats.plain_rounds
            rejections += stats.validation_rejections
            if server.budget_controller is not None:
                raises += server.budget_controller.stats.raises
            for liar in sorted(LIARS):
                if not graph.has_edge(name, liar):
                    continue
                events = [
                    event
                    for event in server.demotion_log
                    if event.neighbour == liar and event.at >= LIE_START
                ]
                latency = events[0].at - LIE_START if events else None
                demotions.append(DemotionRecord(name, liar, latency))
        all_demoted = all(record.demoted_in_window for record in demotions)

    return ArmResult(
        topology=topology_name,
        seed=seed,
        byzantine_tolerant=byzantine_tolerant,
        total_resets=total,
        poisoned_resets=poisoned,
        recoveries=recoveries,
        oracle_bad_samples=oracle_bad,
        correctness_violations=monitor.stats.correctness_violations,
        consistency_violations=monitor.stats.consistency_violations,
        demotions=tuple(demotions),
        all_liars_demoted=all_demoted,
        tolerant_rounds=tolerant_rounds,
        plain_rounds=plain_rounds,
        budget_raises=raises,
        validation_rejections=rejections,
    )


# ------------------------------------------------------------- verdicts


def evaluate(outcomes: Sequence[ArmResult]) -> List[str]:
    """The acceptance criteria, as a list of failures (empty = pass).

    The plain arm must show Figure 3's failure — a poisoned reset, an
    oracle-incorrect sample, or a monitor correctness breach; the FT arm
    none of those, no consistency breach, and every adjacent liar
    demoted before the lying window closed.
    """
    problems: List[str] = []
    for o in outcomes:
        where = f"{o.topology} seed {o.seed}"
        failed = o.poisoned_resets or o.oracle_bad_samples or o.correctness_violations
        if o.arm == "plain" and not failed:
            problems.append(f"{where}: plain IM was never poisoned")
        held = not (failed or o.consistency_violations) and o.all_liars_demoted
        if o.arm == "ft" and not held:
            problems.append(
                f"{where}: FT-IM did not hold (poisoned {o.poisoned_resets}, "
                f"oracle-bad {o.oracle_bad_samples}, monitor "
                f"{o.correctness_violations}/{o.consistency_violations}, "
                f"liars demoted {o.all_liars_demoted})"
            )
    return problems


def _worst_demotion(result: ArmResult) -> str:
    latencies = [r.latency for r in result.demotions if r.latency is not None]
    return f"{max(latencies):.0f}s" if latencies else "-"


COLUMNS: Tuple[gauntlet.Column, ...] = (
    ("topology", lambda o: o.topology),
    ("seed", lambda o: o.seed),
    ("arm", lambda o: o.arm),
    ("poisoned", lambda o: o.poisoned_resets),
    ("oracle bad", lambda o: o.oracle_bad_samples),
    ("monitor", lambda o: f"{o.correctness_violations}/{o.consistency_violations}"),
    ("resets (recov)", lambda o: f"{o.total_resets} ({o.recoveries})"),
    ("tol/plain rounds", lambda o: f"{o.tolerant_rounds}/{o.plain_rounds}"),
    ("raises", lambda o: o.budget_raises),
    ("rejects", lambda o: o.validation_rejections),
    ("liars demoted", lambda o: o.all_liars_demoted),
    ("worst demotion", _worst_demotion),
)


def _topology_sweep(
    outcomes: Sequence[ArmResult], seeds: Sequence[int], **_: Any
) -> Tuple[Dict[str, Any], List[str]]:
    """The ring and random cells at the first seed: reported, not judged."""
    sweep = gauntlet.run_matrix(GAUNTLET, cells=("ring", "random"), seeds=seeds[:1])
    print("\ntopology sweep (reported, not part of acceptance):")
    print(gauntlet.table(COLUMNS, sweep))
    report: Dict[str, Any] = {}
    for arm in sweep:
        report.setdefault(arm.topology, []).append(asdict(arm))
    return report, []


def _run(topology: str, arm: str, seed: int, *, telemetry=None) -> ArmResult:
    return run(topology, arm == "ft", seed)


GAUNTLET = gauntlet.Gauntlet(
    name="figure3-liars",
    run=_run,
    cells=("k5",),
    arms=("plain", "ft"),
    seeds=(1, 2, 3, 4, 5),
    setting={
        "liars": len(LIARS),
        "lie_start": LIE_START,
        "lie_end": LIE_END,
        "tau": TAU,
        "horizon": HORIZON,
    },
    columns=COLUMNS,
    evaluate=evaluate,
    supplement=_topology_sweep,
)


if __name__ == "__main__":
    import sys

    from ..cli import main

    raise SystemExit(main(["figure3-liars", *sys.argv[1:]]))
