"""Chaos soak: seeded fault storms with a continuous correctness oracle.

The paper proves its invariants for correct servers under benign loss; the
chaos subsystem (:mod:`repro.faults`) asks what happens under everything
else — flapping links, partitions, corrupted/duplicated/reordered
messages, crashing servers, stepped/frozen/racing clocks, and Byzantine
liars.  This experiment runs seeded soak storms and reports:

* **zero invariant violations** for non-faulty servers (the monitor's
  taint tracking decides who counts as faulty, and when);
* **deterministic replay** — the same seed reproduces the identical fault
  timeline (schedule signature) and the identical run (trace digest);
* **hardening pays** — under a sustained 30% loss, flapping links, and a
  persistent liar, :class:`~repro.service.hardening.HardenedTimeServer`
  quarantines the liar and keeps the honest servers' error bounded while
  the plain baseline's inconsistency count diverges linearly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ..core.im import IMPolicy
from ..core.mm import MMPolicy
from ..faults import (
    ByzantineReplies,
    FaultSchedule,
    LinkFlap,
    attach_chaos,
)
from ..network.topology import full_mesh
from ..service.builder import ServerSpec, SimulatedService, build_service
from ..service.hardening import HardeningConfig
from ..simulation.trace import trace_digest
from ..telemetry import ServiceTelemetry
from . import gauntlet
from .scenarios import grid

#: Fault rates (events/hour) used by the soak — deliberately far above the
#: schedule sampler's defaults so a 30-minute run sees a real storm.
SOAK_RATES = dict(
    link_fault_rate=40.0,
    message_fault_rate=20.0,
    server_fault_rate=20.0,
)


@dataclass(frozen=True)
class SoakOutcome:
    """One seeded storm.

    Attributes:
        policy: "MM" or "IM".
        seed: Root seed (drives both the schedule and the service RNG).
        horizon: Simulated seconds.
        schedule_signature: Fingerprint of the sampled fault timeline.
        trace_digest: Fingerprint of the full run trace.
        events_applied: Fault events the injector fired.
        fault_counts: Events per kind.
        checks: Monitor sweeps performed.
        violations: Total invariant violations (must be 0).
        exemptions: Server-checks skipped as faulty/tainted/departed.
        survival_rate: Fraction of non-exempt server-checks that passed.
        final_max_error: Largest error bound at the end of the run.
    """

    policy: str
    seed: int
    horizon: float
    schedule_signature: int
    trace_digest: int
    events_applied: int
    fault_counts: Dict[str, int]
    checks: int
    violations: int
    exemptions: int
    survival_rate: float
    final_max_error: float


def _build(
    policy_name: str,
    seed: int,
    *,
    n: int,
    tau: float,
    loss: float = 0.0,
    hardened: bool = True,
    reference: bool = False,
    telemetry=None,
) -> SimulatedService:
    names = [f"S{k + 1}" for k in range(n)]
    specs = [
        ServerSpec(
            name,
            delta=1e-4,
            skew=(k - (n - 1) / 2) * 2e-5,
            initial_error=0.05,
        )
        for k, name in enumerate(names)
    ]
    graph = full_mesh(n)
    if reference:
        # A WWV-style master (paper Section 6) so honest servers have an
        # anchor to sync down to — without one, a symmetric mesh's errors
        # all grow together and "bounded" is unmeasurable.
        graph.add_node("R")
        for name in names:
            graph.add_edge("R", name)
        specs.append(ServerSpec("R", reference=True, initial_error=0.01))
    policy = MMPolicy() if policy_name == "MM" else IMPolicy()
    return build_service(
        graph,
        specs,
        policy=policy,
        tau=tau,
        seed=seed,
        loss_probability=loss,
        hardening=HardeningConfig() if hardened else None,
        telemetry=telemetry,
    )


def run_soak(
    policy_name: str = "MM",
    seed: int = 0,
    *,
    n: int = 5,
    tau: float = 30.0,
    horizon: float = 1800.0,
    monitor_period: float = 5.0,
    telemetry=None,
) -> SoakOutcome:
    """One seeded fault storm against a hardened service.

    Args:
        telemetry: An optional :class:`~repro.telemetry.ServiceTelemetry`
            to attach to the soaked service; :func:`attach_chaos` then
            routes the monitor's ``repro_invariant_checks_total`` counters
            into its registry (the nightly soak's archived artefacts).
    """
    service = _build(policy_name, seed + 100, n=n, tau=tau, telemetry=telemetry)
    names = sorted(service.servers)
    edges = sorted(
        tuple(sorted((str(a), str(b)))) for a, b in service.network.graph.edges
    )
    schedule = FaultSchedule.random(
        seed=seed, names=names, edges=edges, horizon=horizon, **SOAK_RATES
    )
    injector, monitor = attach_chaos(
        service, schedule, monitor_period=monitor_period
    )
    service.run_until(horizon)
    assert monitor is not None
    stats = monitor.stats
    total_slots = stats.checks * len(names)
    judged = max(1, total_slots - stats.exemptions)
    snap = service.snapshot()
    return SoakOutcome(
        policy=policy_name,
        seed=seed,
        horizon=horizon,
        schedule_signature=schedule.signature(),
        trace_digest=trace_digest(service.trace),
        events_applied=injector.stats.events_applied,
        fault_counts=schedule.counts(),
        checks=stats.checks,
        violations=stats.total_violations,
        exemptions=stats.exemptions,
        survival_rate=(judged - stats.correctness_violations) / judged,
        final_max_error=snap.max_error,
    )


def evaluate(outcomes: Sequence[SoakOutcome]) -> List[str]:
    """The acceptance criterion, as a list of failures (empty = pass)."""
    return [
        f"{o.policy} seed {o.seed}: {o.violations} invariant violation(s) "
        f"for non-faulty servers"
        for o in outcomes
        if o.violations
    ]


# ------------------------------------------------------- hardening payoff


def adversarial_schedule(
    edges: Sequence[Tuple[str, str]],
    horizon: float,
    *,
    liar: str,
    flap_period: float = 120.0,
    lie_offset: float = 5.0,
) -> FaultSchedule:
    """Flapping links plus a persistent Byzantine liar.

    Combined with a 30% ambient message loss this is the hostile
    environment the hardening comparison runs in: the liar answers every
    poll with a clock 5 s off and a confidently understated error.
    """
    events = []
    t = 90.0
    while t < horizon:
        for a, b in list(edges)[:2]:
            events.append(LinkFlap(at=t, a=a, b=b, downtime=45.0))
        t += flap_period
    t = 60.0
    while t < horizon:
        events.append(
            ByzantineReplies(
                at=t,
                server=liar,
                duration=110.0,
                offset=lie_offset,
                error_scale=0.2,
            )
        )
        t += 120.0
    return FaultSchedule(events)


@dataclass(frozen=True)
class HardeningComparison:
    """Plain vs hardened servers under the same adversarial schedule.

    Attributes:
        seed: Root seed shared by both runs.
        horizon: Simulated seconds.
        liar: The Byzantine server (excluded from honest metrics).
        baseline_inconsistencies: Inconsistency detections summed over the
            plain run's honest servers — grows for as long as the liar
            keeps answering, i.e. diverges with the horizon.
        hardened_inconsistencies: Same for the hardened run — validation
            rejects the lies before the policy ever sees them.
        baseline_worst_error: Largest honest-server error bound observed
            at any sample of the plain run.
        hardened_worst_error: Same for the hardened run.
        baseline_honest_correct: Fraction of honest-server samples whose
            interval contained true time (plain run).
        hardened_honest_correct: Same for the hardened run.
        hardened_invalid_replies: Lies caught by validation.
        hardened_quarantines: Quarantine activations across the run.
        hardened_retries: Poll retransmissions sent (the 30% loss is why).
    """

    seed: int
    horizon: float
    liar: str
    baseline_inconsistencies: int
    hardened_inconsistencies: int
    baseline_worst_error: float
    hardened_worst_error: float
    baseline_honest_correct: float
    hardened_honest_correct: float
    hardened_invalid_replies: int
    hardened_quarantines: int
    hardened_retries: int


def _adversarial_run(
    seed: int,
    *,
    hardened: bool,
    n: int,
    tau: float,
    horizon: float,
    loss: float,
    samples: int,
) -> Tuple[SimulatedService, float, float, str]:
    liar = f"S{n}"
    service = _build(
        "MM", seed, n=n, tau=tau, loss=loss, hardened=hardened, reference=True
    )
    edges = sorted(
        tuple(sorted((str(a), str(b)))) for a, b in service.network.graph.edges
    )
    schedule = adversarial_schedule(edges, horizon, liar=liar)
    attach_chaos(service, schedule, monitor=False)
    honest = [
        name for name in sorted(service.servers) if name not in (liar, "R")
    ]
    worst = 0.0
    correct = 0
    total = 0
    for snap in service.sample(grid(tau, horizon, samples)):
        worst = max(worst, max(snap.errors[name] for name in honest))
        correct += sum(1 for name in honest if snap.correct[name])
        total += len(honest)
    return service, worst, correct / max(1, total), liar


def compare_hardening(
    seed: int = 0,
    *,
    n: int = 5,
    tau: float = 30.0,
    horizon: float = 1800.0,
    loss: float = 0.3,
    samples: int = 60,
) -> HardeningComparison:
    """Run the adversarial schedule twice: plain servers, then hardened."""
    base, base_worst, base_correct, liar = _adversarial_run(
        seed, hardened=False, n=n, tau=tau, horizon=horizon, loss=loss,
        samples=samples,
    )
    hard, hard_worst, hard_correct, _ = _adversarial_run(
        seed, hardened=True, n=n, tau=tau, horizon=horizon, loss=loss,
        samples=samples,
    )

    def inconsistencies(service: SimulatedService) -> int:
        return sum(
            service.servers[name].stats.inconsistencies
            for name in service.servers
            if name != liar
        )

    invalid = sum(
        server.stats.invalid_replies for server in hard.servers.values()
    )
    quarantines = sum(
        getattr(server, "hardening_stats").quarantines
        for server in hard.servers.values()
        if hasattr(server, "hardening_stats")
    )
    retries = sum(
        getattr(server, "hardening_stats").retries_sent
        for server in hard.servers.values()
        if hasattr(server, "hardening_stats")
    )
    return HardeningComparison(
        seed=seed,
        horizon=horizon,
        liar=liar,
        baseline_inconsistencies=inconsistencies(base),
        hardened_inconsistencies=inconsistencies(hard),
        baseline_worst_error=base_worst,
        hardened_worst_error=hard_worst,
        baseline_honest_correct=base_correct,
        hardened_honest_correct=hard_correct,
        hardened_invalid_replies=invalid,
        hardened_quarantines=quarantines,
        hardened_retries=retries,
    )


def _run(
    cell, policy: str, seed: int, *, servers: int, compare, compare_seed, **params
) -> SoakOutcome:
    return run_soak(policy.upper(), seed, n=servers, **params)


def _compare(
    outcomes: Sequence[SoakOutcome],
    seeds: Sequence[int],
    *,
    compare: bool,
    compare_seed: int,
    servers: int,
    tau: float,
    horizon: float,
) -> Tuple[Dict[str, Any], List[str]]:
    """The hardening payoff, when asked for: printed and reported."""
    if not compare:
        return {}, []
    comparison = compare_hardening(compare_seed, n=servers, tau=tau, horizon=horizon)
    print(
        f"\nhardening payoff vs Byzantine {comparison.liar} + 30% loss: "
        f"inconsistencies {comparison.baseline_inconsistencies} (plain) "
        f"-> {comparison.hardened_inconsistencies} (hardened), "
        f"worst honest E {comparison.baseline_worst_error:.3f} -> "
        f"{comparison.hardened_worst_error:.3f}, "
        f"{comparison.hardened_quarantines} quarantines"
    )
    return {"hardening": asdict(comparison)}, []


GAUNTLET = gauntlet.Gauntlet(
    name="chaos-soak",
    run=_run,
    arms=("mm", "im"),
    seeds=(0, 1, 2, 3, 4),
    params={
        "servers": 5,
        "tau": 30.0,
        "horizon": 1800.0,
        "compare": True,
        "compare_seed": 0,
    },
    check=lambda cells, servers, **_: (
        "--servers must be at least 3" if servers < 3 else None
    ),
    columns=(
        ("policy", lambda o: o.policy),
        ("seed", lambda o: o.seed),
        ("faults", lambda o: o.events_applied),
        ("checks", lambda o: o.checks),
        ("violations", lambda o: o.violations),
        ("exempt", lambda o: o.exemptions),
        ("survival", lambda o: f"{o.survival_rate:.3f}"),
        ("final max E", lambda o: f"{o.final_max_error:.3f}"),
        ("schedule sig", lambda o: f"{o.schedule_signature:08x}"),
        ("trace digest", lambda o: f"{o.trace_digest:08x}"),
    ),
    evaluate=evaluate,
    telemetry=lambda tau, **_: ServiceTelemetry(spans=False, sample_period=tau),
    bundle=gauntlet.ARM_BUNDLE,
    summary=("policy", "seed", "violations", "exemptions"),
    supplement=_compare,
)


if __name__ == "__main__":
    raise SystemExit(gauntlet.main(GAUNTLET))
