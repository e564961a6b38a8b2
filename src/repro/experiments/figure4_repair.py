"""Figure 4 repaired — the self-stabilizing layer re-merges the groups.

The ``partition`` experiment shows Section 5's breakdown: with two
incorrect servers adjacent to G1, the paper's "any third server" recovery
rule adopts a liar and the service splits into consistency groups that
never re-merge.  This experiment runs the same topology with the badness
injected through the faults DSL (so the invariant monitor knows which
servers are *supposed* to be wrong and when) and compares two arms:

* **plain** — the paper's servers with :class:`~repro.core.recovery.
  ThirdServerRecovery`: G1 is repeatedly poisoned and the non-faulty
  servers end in two or more consistency groups (the Figure 4 state);
* **self-stabilizing** — :class:`~repro.recovery.server.
  SelfStabilizingServer` with :class:`~repro.recovery.stabilizer.
  SelfStabilizingRecovery`: the consonance veto and census-majority
  vetting keep the liars out of the arbiter pool, so every recovery
  merges G1 back into the good core and the non-faulty servers end in
  exactly one group — with zero monitor correctness violations outside
  the scheduled fault windows.

A second scenario, :func:`crash_soak`, exercises the durable-state leg:
seeded runs crash servers mid-flight and assert that every warm restart
(interval rebuilt from the stable store with the ρ·downtime inflation)
revives *correct*, and that a sabotaged checkpoint (bit rot + torn write)
falls back to the cold-start bootstrap instead of trusting bad state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..analysis.consistency_graph import ConsistencyGroup, consistency_groups
from ..core.mm import MMPolicy
from ..core.recovery import ThirdServerRecovery
from ..faults import (
    CheckpointCorruption,
    ClockRace,
    ClockStep,
    FaultSchedule,
    ServerCrash,
    TornCheckpoint,
    attach_chaos,
)
from ..network.delay import UniformDelay
from ..recovery import SelfStabilizingRecovery
from ..service.builder import ServerSpec, build_service
from . import gauntlet
from .scenarios import grid

#: Claimed bound for every server (~0.9 s/day).
CLAIMED_DELTA = 1e-5

#: The non-faulty servers (the acceptance set for the repair).
GOOD = ("G1", "G2", "G3", "G4")

#: The servers the schedule makes incorrect.
BAD = ("B1", "B2")

#: Honest skews — everyone is within the claim until the DSL says otherwise.
SKEWS = {
    "B1": +2e-6,
    "B2": -1e-6,
    "G1": +2e-6,
    "G2": -2e-6,
    "G3": 0.0,
    "G4": +1e-6,
}

#: When the bad clocks start racing (and at what rates — far beyond the
#: claim, different from each other, so B1 and B2 are mutually inconsistent).
RACE_START = 60.0
RACE_SKEWS = {"B1": +5e-3, "B2": -4e-3}

#: G1's clock silently jumps mid-run, forcing a full group re-merge.
STEP_AT = 1800.0
STEP_OFFSET = 0.5


def _breakdown_topology() -> nx.Graph:
    """G1 adjacent to both bad servers; good core is a triangle."""
    graph = nx.Graph()
    graph.add_edges_from(
        [
            ("G1", "B1"),
            ("G1", "B2"),
            ("G1", "G2"),
            ("G2", "G3"),
            ("G3", "G4"),
            ("G2", "G4"),
        ]
    )
    return graph


def _breakdown_schedule(horizon: float) -> FaultSchedule:
    """The DSL rendering of the Figure 4 scenario."""
    schedule = FaultSchedule()
    for name, skew in RACE_SKEWS.items():
        schedule.add(
            ClockRace(
                at=RACE_START, server=name, skew=skew, duration=horizon - RACE_START
            )
        )
    schedule.add(ClockStep(at=STEP_AT, server="G1", offset=STEP_OFFSET))
    return schedule


@dataclass(frozen=True)
class RepairResult:
    """Outcome of one arm of the repair scenario.

    Attributes:
        self_stabilizing: Which arm this is.
        seed: The run's root seed.
        groups_all: Final consistency groups over all six servers.
        groups_good: Final consistency groups over the non-faulty servers
            only — the acceptance metric (1 == repaired, ≥2 == Figure 4).
        merged: Whether the non-faulty servers ended in a single group.
        total_recoveries: All recovery resets over the run.
        poisoned_recoveries: Recovery resets whose arbiter was a bad server.
        correctness_violations: Monitor correctness breaches *outside*
            fault windows and taint (the monitor exempts scheduled faults).
        consistency_violations: Same, for pairwise consistency.
        g1_final_offset: ``|C_G1 - t|`` at the end.
        core_still_correct: Oracle — the untouched core (G2–G4) stayed
            correct.
        census_detected_split: Whether any server's live census held a
            fresh "inconsistent" verdict on a good-good pair at some
            sample (the online Figure 4 detector firing).  None in the
            plain arm (no census exists).
        census_detection_time: First sample time the census saw the split.
        census_clean_at_end: Whether the final census holds no stale
            split among the good servers (the detector standing down
            after the merge).  None in the plain arm.
        final_epochs: Merge epoch by server at the end (plain arm: empty).
    """

    self_stabilizing: bool
    seed: int
    groups_all: List[ConsistencyGroup]
    groups_good: List[ConsistencyGroup]
    merged: bool
    total_recoveries: int
    poisoned_recoveries: int
    correctness_violations: int
    consistency_violations: int
    g1_final_offset: float
    core_still_correct: bool
    census_detected_split: Optional[bool]
    census_detection_time: Optional[float]
    census_clean_at_end: Optional[bool]
    final_epochs: Dict[str, int]

    @property
    def passed(self) -> bool:
        """The plain arm reproduced Figure 4 (≥2 groups of non-faulty
        servers); the stabilized arm repaired it (one group, zero
        correctness violations outside fault windows)."""
        if self.self_stabilizing:
            return self.merged and self.correctness_violations == 0
        return len(self.groups_good) >= 2


def _good_split_seen(service) -> bool:
    """Whether G2's live census currently condemns a good-good edge."""
    observer = service.servers["G2"]
    verdicts = observer.census.edge_verdicts(observer.clock_value())
    good = set(GOOD)
    return any(
        not ok for pair, ok in verdicts.items() if pair <= good
    )


def run(
    self_stabilizing: bool,
    tau: float = 120.0,
    horizon: float = 2.0 * 3600.0,
    seed: int = 13,
) -> RepairResult:
    """Run one arm of the DSL-driven breakdown scenario.

    Args:
        self_stabilizing: False builds the paper's plain servers with
            :class:`~repro.core.recovery.ThirdServerRecovery`; True builds
            the full recovery subsystem.
    """
    names = sorted(SKEWS)
    specs = [
        ServerSpec(
            name,
            delta=CLAIMED_DELTA,
            skew=SKEWS[name],
            self_stabilizing=self_stabilizing,
        )
        for name in names
    ]
    if self_stabilizing:
        recovery_factory = lambda name: SelfStabilizingRecovery()  # noqa: E731
    else:
        recovery_factory = lambda name: ThirdServerRecovery()  # noqa: E731
    service = build_service(
        _breakdown_topology(),
        specs,
        policy=MMPolicy(),
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(0.02),
        recovery_factory=recovery_factory,
        trace_enabled=True,
    )
    schedule = _breakdown_schedule(horizon)
    injector, monitor = attach_chaos(service, schedule)

    detected: Optional[bool] = None
    detection_time: Optional[float] = None
    if self_stabilizing:
        detected = False
    final = None
    for t in grid(0.0, horizon, 120):
        service.run_until(t)
        final = service.snapshot()
        if self_stabilizing and not detected and _good_split_seen(service):
            detected = True
            detection_time = t

    intervals = final.intervals()
    groups_all = consistency_groups(intervals)
    groups_good = consistency_groups(
        {name: intervals[name] for name in GOOD}
    )

    recoveries = service.trace.filter(
        kind="reset",
        predicate=lambda row: row.data.get("reset_kind") == "recovery",
    )
    bad = set(BAD)
    poisoned = sum(
        1
        for row in recoveries
        if row.data.get("from_server", "").removeprefix("recovery:") in bad
    )

    if self_stabilizing:
        census_clean = not _good_split_seen(service)
        epochs = {
            name: service.servers[name].epoch for name in names
        }
    else:
        census_clean = None
        epochs = {}

    core = {"G2", "G3", "G4"}
    return RepairResult(
        self_stabilizing=self_stabilizing,
        seed=seed,
        groups_all=groups_all,
        groups_good=groups_good,
        merged=len(groups_good) == 1,
        total_recoveries=len(recoveries),
        poisoned_recoveries=poisoned,
        correctness_violations=monitor.stats.correctness_violations,
        consistency_violations=monitor.stats.consistency_violations,
        g1_final_offset=abs(final.offsets["G1"]),
        core_still_correct=all(final.correct[name] for name in core),
        census_detected_split=detected,
        census_detection_time=detection_time,
        census_clean_at_end=census_clean,
        final_epochs=epochs,
    )


# --------------------------------------------------------------- crash soak


@dataclass(frozen=True)
class SoakReport:
    """One seeded crash-restart run, scored.

    Attributes:
        seed: The run's root seed.
        restarts: Total restarts observed.
        warm_restarts: Restarts rebuilt from a checkpoint.
        cold_restarts: Restarts that fell back to the bootstrap (the
            sabotaged-checkpoint server must land here).
        warm_all_correct: Every warm restart revived with an interval
            containing true time — the acceptance oracle.
        all_correct: Every restart (warm or cold) revived correct.
        correctness_violations: Monitor breaches outside fault windows.
    """

    seed: int
    restarts: int
    warm_restarts: int
    cold_restarts: int
    warm_all_correct: bool
    all_correct: bool
    correctness_violations: int


def run_soak(
    seed: int, tau: float = 60.0, horizon: float = 3600.0
) -> SoakReport:
    """One crash-restart soak: a good mesh, three crashes, one sabotage.

    S2 and S3 crash with intact checkpoints (warm-restart path); S4's
    checkpoint is bit-rotted *and* its next write torn just before its
    crash, so its restart must detect the damage and come back cold.
    """
    rng = np.random.default_rng(seed)
    names = ["S1", "S2", "S3", "S4"]
    skews = {"S1": +2e-6, "S2": -2e-6, "S3": +1e-6, "S4": -1e-6}
    specs = [
        ServerSpec(
            name,
            delta=CLAIMED_DELTA,
            skew=skews[name],
            self_stabilizing=True,
        )
        for name in names
    ]
    service = build_service(
        nx.complete_graph(names),
        specs,
        policy=MMPolicy(),
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(0.02),
        recovery_factory=lambda name: SelfStabilizingRecovery(),
        trace_enabled=True,
    )
    schedule = FaultSchedule()
    for name in ("S2", "S3", "S4"):
        at = float(rng.uniform(900.0, horizon - 900.0))
        downtime = float(rng.uniform(60.0, 300.0))
        schedule.add(
            ServerCrash(at=at, server=name, downtime=downtime, rejoin_error=2.0)
        )
        if name == "S4":
            # Bit rot *and* an armed torn write: whether or not another
            # checkpoint lands before the crash, the slot is unusable and
            # the restart must take the cold path.
            schedule.add(CheckpointCorruption(at=at - 0.5, server=name))
            schedule.add(TornCheckpoint(at=at - 0.5, server=name))
    injector, monitor = attach_chaos(service, schedule)
    service.run_until(horizon)

    reports = [
        report
        for name in names
        for report in service.servers[name].restart_reports
    ]
    warm = [report for report in reports if report.warm]
    cold = [report for report in reports if not report.warm]
    return SoakReport(
        seed=seed,
        restarts=len(reports),
        warm_restarts=len(warm),
        cold_restarts=len(cold),
        warm_all_correct=all(report.correct for report in warm),
        all_correct=all(report.correct for report in reports),
        correctness_violations=monitor.stats.correctness_violations,
    )


def crash_soak(
    seeds=(1, 2, 3, 4, 5), tau: float = 60.0, horizon: float = 3600.0
) -> List[SoakReport]:
    """The crash-restart soak across several seeds."""
    return [run_soak(seed, tau=tau, horizon=horizon) for seed in seeds]


# --------------------------------------------------------------- reporting


def evaluate(outcomes: Sequence[RepairResult]) -> List[str]:
    """The acceptance criteria, as a list of failures (empty = pass)."""
    return [
        f"seed {o.seed}: "
        f"{'not repaired' if o.self_stabilizing else 'Figure 4 not reproduced'} "
        f"({len(o.groups_good)} non-faulty group(s), "
        f"{o.correctness_violations} correctness violation(s))"
        for o in outcomes
        if not o.passed
    ]


def _crash_soak(
    outcomes: Sequence[RepairResult], seeds: Sequence[int], **_: Any
) -> Tuple[Dict[str, Any], List[str]]:
    """The crash-restart soak: warm restores must revive correct."""
    soak = crash_soak()
    print("\nCrash-restart soak (warm restores must revive correct):")
    for row in soak:
        print(f"  {row}")
    extra = {
        "figure4_reproduced": all(
            o.passed for o in outcomes if not o.self_stabilizing
        ),
        "repaired": all(o.passed for o in outcomes if o.self_stabilizing),
        "crash_soak": [asdict(row) for row in soak],
    }
    problems = [
        f"crash soak seed {row.seed}: a warm restart revived incorrect"
        for row in soak
        if not row.warm_all_correct
    ]
    return extra, problems


def _run(cell, arm: str, seed: int, *, telemetry=None, **params) -> RepairResult:
    return run(arm == "self-stabilizing", seed=seed, **params)


GAUNTLET = gauntlet.Gauntlet(
    name="figure4-repair",
    run=_run,
    arms=("plain", "self-stabilizing"),
    seeds=(13,),
    params={"tau": 120.0, "horizon": 2.0 * 3600.0},
    setting={"good": ",".join(GOOD), "bad": ",".join(BAD)},
    columns=(
        ("seed", lambda o: o.seed),
        ("arm", lambda o: "self-stabilizing" if o.self_stabilizing else "plain"),
        ("good groups", lambda o: [group.members for group in o.groups_good]),
        ("recoveries", lambda o: o.total_recoveries),
        ("poisoned", lambda o: o.poisoned_recoveries),
        ("monitor", lambda o: f"{o.correctness_violations}/{o.consistency_violations}"),
        ("G1 offset s", lambda o: f"{o.g1_final_offset:.3f}"),
        ("census split", lambda o: o.census_detected_split),
        ("census clean", lambda o: o.census_clean_at_end),
        ("epochs", lambda o: o.final_epochs or "-"),
    ),
    evaluate=evaluate,
    supplement=_crash_soak,
)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", default=None, help="also write the report as JSON here"
    )
    raise SystemExit(gauntlet.main(GAUNTLET, json=parser.parse_args().json))
