"""Flash crowd — overload robustness of the time service's sync plane.

The paper's service model has infinite capacity: a server answers every
request instantly, so client traffic can never interfere with the MM-2 /
IM-2 poll rounds that keep the errors bounded.  Real servers have CPUs.
This experiment gives every server a finite request path (the
:mod:`repro.load` capacity model) and drives it with an open-loop Poisson
client workload that ramps from a calm base rate into a ~23× flash crowd,
comparing two arms on identical topology, clocks and seeds:

* **plain** — a single FIFO run queue with drop-tail overflow and no
  other defence (:meth:`~repro.load.server.LoadPolicy.plain`), queried by
  plain one-shot clients.  During the crowd the queue sits full of client
  requests, peer poll messages drown in it or are dropped, and rule
  MM-2's rounds stop completing: the invariant monitor's sync-plane
  progress assertion fires and every server's error ``E_i`` grows at the
  full drift bound ``δ`` until the crowd recedes — the paper's guarantee
  starved out by load the paper never modelled.

* **controlled** — the same capacity, defended: a priority queue that
  serves the sync plane first (evicting queued client work on overflow),
  a token-bucket admission limiter with retry-after hints, deadline-aware
  shedding, and a queue-delay EWMA that flips client answers to the
  *degraded* path — the cached ``⟨C₀, E₀⟩`` aged and served with its
  error inflated by ``δ·age/(1 − δ)``, rule MM-1's "answer with a large
  E" taken literally, so every degraded answer still contains true time.  Clients
  are :class:`~repro.load.client.ResilientTimeClient`\\ s (retries,
  breakers, hedging).  The acceptance bar: zero monitor violations of
  any kind, every degraded reply oracle-correct, and crowd-window
  goodput/p99 that dominate the plain arm.

Everything is driven by named RNG streams, so a seed fully determines
both arms; each arm result carries a digest over its counters to make
determinism checkable.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass
from typing import List, Sequence, Tuple

import networkx as nx

from ..core.im import IMPolicy
from ..faults import attach_chaos
from ..load import (
    BackoffPolicy,
    CapacityConfig,
    CircuitBreakerConfig,
    FlashCrowdProfile,
    LoadPolicy,
    ResilienceConfig,
    TokenBucketConfig,
    WorkloadGenerator,
)
from ..network.delay import UniformDelay
from ..service.builder import ServerSpec, build_service
from . import gauntlet
from .scenarios import grid

#: Claimed drift bound for every server (makes unsynced E growth visible
#: within a two-minute run).
CLAIMED_DELTA = 1e-3

#: The four time servers (a complete sync mesh).
SERVERS = ("S1", "S2", "S3", "S4")

#: Client hub nodes, each attached to every server.
CLIENT_NODES = ("C1", "C2")

#: Actual skews — all honest (|skew| < δ); overload, not lying, is the foe.
SKEWS = {"S1": +5e-4, "S2": -3e-4, "S3": +2e-4, "S4": -5e-4}

#: Poll period and per-round reply deadline.
TAU = 5.0
ROUND_TIMEOUT = 1.0

#: One-way LAN delay bound (uniform 0–10 ms).
ONE_WAY = 0.01

#: Run length and the offered-rate shape (per generator; two generators).
HORIZON = 120.0
PROFILE = FlashCrowdProfile(
    base_rate=15.0, crowd_rate=350.0, crowd_start=30.0, crowd_end=70.0, ramp=2.0
)

#: Monitor cadence and the sync-plane progress window (3τ).
MONITOR_PERIOD = 5.0
SYNC_WINDOW = 3.0 * TAU

#: The capacity physics, shared by both arms: 8 ms per fresh answer
#: (125 req/s), 1.5 ms per degraded answer, a 128-deep run queue.
SERVICE_TIME = 0.008
DEGRADED_TIME = 0.0015
QUEUE_LIMIT = 128


def _capacity(controlled: bool) -> CapacityConfig:
    """Same physics; only the queue *discipline* differs between arms."""
    return CapacityConfig(
        service_time=SERVICE_TIME,
        degraded_time=DEGRADED_TIME,
        queue_limit=QUEUE_LIMIT,
        prioritized=controlled,
        sync_evicts_client=controlled,
    )


def _load_policy(controlled: bool) -> LoadPolicy:
    if not controlled:
        return LoadPolicy.plain()
    return LoadPolicy(
        admission=TokenBucketConfig(rate=200.0, burst=40.0),
        shedding="deadline",
        shedding_kwargs={"deadline": 0.25},
        degraded=True,
        busy_replies=True,
    )


def _resilience() -> ResilienceConfig:
    return ResilienceConfig(
        max_attempts=4,
        attempt_timeout=0.3,
        backoff=BackoffPolicy(base=0.04, factor=2.0, max_delay=0.5, jitter=0.5),
        breaker=CircuitBreakerConfig(failure_threshold=4, reset_timeout=3.0),
        hedge_after=0.15,
        honor_retry_after=True,
    )


def _topology() -> nx.Graph:
    graph = nx.complete_graph(len(SERVERS))
    graph = nx.relabel_nodes(graph, dict(enumerate(SERVERS)))
    for hub in CLIENT_NODES:
        for server in SERVERS:
            graph.add_edge(hub, server)
    return graph


# --------------------------------------------------------------------- arms


@dataclass(frozen=True)
class ArmResult:
    """One arm of the comparison, fully summarised.

    Crowd-window metrics attribute each query to its *issue* time and
    cover only the full-rate plateau; latency percentiles include failed
    queries at the latency their failure took to surface.
    """

    arm: str
    seed: int
    issued: int
    completed: int
    failed: int
    crowd_issued: int
    crowd_good: int  # completed, correct, issued on the plateau
    goodput: float  # crowd_good per plateau second
    p50_latency: float
    p99_latency: float
    shed_rate: float  # shed or refused arrivals per crowd query
    busy_replies: int
    shed_silent: int
    sync_evictions: int
    sync_drops: int
    degraded_replies: int
    degraded_correct: int
    fresh_replies: int
    peak_queue_depth: int
    overload_onsets: int
    sync_plane_violations: int
    monitor_violations: int  # all categories
    monitor_checks: int
    min_replies_handled: int  # across servers — the starving arm's tell
    max_error_crowd: float  # peak service-wide E on the plateau
    max_error_final: float
    incorrect_results: int  # oracle: successful queries whose interval missed
    digest: str  # crc32 over the integer counters (determinism check)


def run_arm(
    controlled: bool,
    seed: int,
    *,
    horizon: float = HORIZON,
    profile: FlashCrowdProfile = PROFILE,
) -> ArmResult:
    """Run one arm and summarise it."""
    service = build_service(
        _topology(),
        [
            ServerSpec(
                name,
                delta=CLAIMED_DELTA,
                skew=SKEWS[name],
                initial_error=0.02,
            )
            for name in SERVERS
        ],
        policy=IMPolicy(),
        tau=TAU,
        seed=seed,
        lan_delay=UniformDelay(ONE_WAY),
        round_timeout=ROUND_TIMEOUT,
        capacity=_capacity(controlled),
        load_policy=_load_policy(controlled),
    )
    _, monitor = attach_chaos(
        service, monitor_period=MONITOR_PERIOD, sync_window=SYNC_WINDOW
    )

    generators = []
    clients = []
    for hub in CLIENT_NODES:
        resilience = _resilience() if controlled else None
        client = service.add_client(hub, timeout=1.0, resilience=resilience)
        client.start()
        clients.append(client)
        generator = WorkloadGenerator(
            service.engine,
            f"load/{hub}",
            client,
            SERVERS,
            profile,
            service.rng.stream(f"workload/{hub}"),
            stop_at=horizon,
            servers_per_ask=len(SERVERS) if controlled else 1,
        )
        generator.start()
        generators.append(generator)

    # Advance on a 1 s grid so the plateau's peak E is actually observed.
    max_error_crowd = 0.0
    for snapshot in service.sample(grid(0.0, horizon, int(horizon) + 1)):
        if profile.in_crowd(snapshot.time):
            max_error_crowd = max(max_error_crowd, snapshot.max_error)
    final = service.snapshot()

    # Each finished query: (issued_at, latency, correct, failed) — both
    # successes and explicit failures, attributed to their issue time.
    records: List[Tuple[float, float, bool, bool]] = []
    for client in clients:
        for result in list(client.results) + list(client.failures):
            records.append(
                (
                    result.true_time - result.latency,
                    result.latency,
                    result.correct,
                    result.failed,
                )
            )

    issued = sum(g.issued for g in generators)
    crowd_issued = sum(g.issued_in_crowd for g in generators)
    completed = sum(1 for _, _, _, failed in records if not failed)
    failed = sum(1 for _, _, _, f in records if f)
    incorrect = sum(
        1 for _, _, correct, f in records if not f and not correct
    )
    in_crowd = [r for r in records if profile.in_crowd(r[0])]
    crowd_good = sum(1 for _, _, correct, f in in_crowd if not f and correct)
    latencies = sorted(latency for _, latency, _, _ in in_crowd)

    def percentile(fraction: float) -> float:
        if not latencies:
            return math.nan
        index = min(len(latencies) - 1, int(fraction * (len(latencies) - 1)))
        return latencies[index]

    plateau = (profile.crowd_end - profile.ramp) - (
        profile.crowd_start + profile.ramp
    )
    busy = shed_silent = evictions = sync_drops = 0
    degraded = degraded_correct = fresh = peak_depth = onsets = 0
    min_replies = min(
        server.stats.replies_handled for server in service.servers.values()
    )
    for server in service.servers.values():
        stats = server.load_stats
        busy += stats.busy_replies
        shed_silent += stats.shed_silent
        evictions += stats.sync_evictions
        sync_drops += stats.sync_drops
        degraded += stats.degraded_replies
        degraded_correct += stats.degraded_correct
        fresh += stats.fresh_replies
        peak_depth = max(peak_depth, server.queue.stats.peak_depth)
        if server.detector is not None:
            onsets += server.detector.onsets
    shed_rate = (busy + shed_silent) / max(1, crowd_issued)

    counters = [
        issued,
        crowd_issued,
        completed,
        failed,
        busy,
        shed_silent,
        evictions,
        sync_drops,
        degraded,
        degraded_correct,
        fresh,
        peak_depth,
        monitor.stats.sync_plane_violations,
        monitor.stats.total_violations,
        min_replies,
    ]
    digest = f"{zlib.crc32(json.dumps(counters).encode()):08x}"

    return ArmResult(
        arm="controlled" if controlled else "plain",
        seed=seed,
        issued=issued,
        completed=completed,
        failed=failed,
        crowd_issued=crowd_issued,
        crowd_good=crowd_good,
        goodput=crowd_good / plateau,
        p50_latency=percentile(0.50),
        p99_latency=percentile(0.99),
        shed_rate=shed_rate,
        busy_replies=busy,
        shed_silent=shed_silent,
        sync_evictions=evictions,
        sync_drops=sync_drops,
        degraded_replies=degraded,
        degraded_correct=degraded_correct,
        fresh_replies=fresh,
        peak_queue_depth=peak_depth,
        overload_onsets=onsets,
        sync_plane_violations=monitor.stats.sync_plane_violations,
        monitor_violations=monitor.stats.total_violations,
        monitor_checks=monitor.stats.checks,
        min_replies_handled=min_replies,
        max_error_crowd=max_error_crowd,
        max_error_final=final.max_error,
        incorrect_results=incorrect,
        digest=digest,
    )


# -------------------------------------------------------------- comparison


@dataclass(frozen=True)
class Comparison:
    """Both arms under one seed, plus the acceptance verdicts."""

    seed: int
    plain: ArmResult
    controlled: ArmResult

    @property
    def plain_starved(self) -> bool:
        """The undefended arm's sync plane visibly suffered."""
        return self.plain.sync_plane_violations > 0

    @property
    def controlled_clean(self) -> bool:
        """The defended arm kept every invariant, crowd included."""
        return self.controlled.monitor_violations == 0

    @property
    def degraded_all_correct(self) -> bool:
        """Degraded mode engaged and never served a wrong interval."""
        return (
            self.controlled.degraded_replies > 0
            and self.controlled.degraded_correct
            == self.controlled.degraded_replies
        )

    @property
    def controlled_dominates(self) -> bool:
        """Crowd-window goodput and tail latency both favour defence."""
        return (
            self.controlled.goodput > self.plain.goodput
            and self.controlled.p99_latency < self.plain.p99_latency
        )

    @property
    def passed(self) -> bool:
        return (
            self.plain_starved
            and self.controlled_clean
            and self.degraded_all_correct
            and self.controlled_dominates
            and self.plain.incorrect_results == 0
            and self.controlled.incorrect_results == 0
        )


def run_comparison(
    seed: int,
    *,
    horizon: float = HORIZON,
    profile: FlashCrowdProfile = PROFILE,
) -> Comparison:
    """Both arms under one seed."""
    return Comparison(
        seed=seed,
        plain=run_arm(False, seed, horizon=horizon, profile=profile),
        controlled=run_arm(True, seed, horizon=horizon, profile=profile),
    )


def evaluate(outcomes: Sequence[ArmResult]) -> List[str]:
    """The acceptance criteria, per seed, as a list of failures."""
    problems: List[str] = []
    for seed in sorted({o.seed for o in outcomes}):
        arms = {o.arm: o for o in outcomes if o.seed == seed}
        if len(arms) < 2:
            continue
        comparison = Comparison(seed, arms["plain"], arms["controlled"])
        if not comparison.passed:
            problems.append(
                f"seed {seed}: starved={comparison.plain_starved} "
                f"clean={comparison.controlled_clean} "
                f"degraded-ok={comparison.degraded_all_correct} "
                f"dominates={comparison.controlled_dominates} "
                f"incorrect={arms['plain'].incorrect_results}/"
                f"{arms['controlled'].incorrect_results}"
            )
    return problems


def _run(cell, arm: str, seed: int, *, telemetry=None, **params) -> ArmResult:
    return run_arm(arm == "controlled", seed, **params)


GAUNTLET = gauntlet.Gauntlet(
    name="flash-crowd",
    run=_run,
    arms=("plain", "controlled"),
    seeds=(11, 12, 13),
    params={"horizon": HORIZON},
    setting={
        "tau": TAU,
        "delta": CLAIMED_DELTA,
        "profile": asdict(PROFILE),
        "generators": len(CLIENT_NODES),
        "service_time": SERVICE_TIME,
        "degraded_time": DEGRADED_TIME,
        "queue_limit": QUEUE_LIMIT,
    },
    columns=(
        ("seed", lambda o: o.seed),
        ("arm", lambda o: o.arm),
        ("goodput/s", lambda o: f"{o.goodput:.1f}"),
        ("p99 s", lambda o: f"{o.p99_latency:.3f}"),
        ("shed", lambda o: f"{o.shed_rate:.1%}"),
        ("degraded", lambda o: f"{o.degraded_correct}/{o.degraded_replies}"),
        ("sync-viol", lambda o: o.sync_plane_violations),
        ("maxE(crowd)", lambda o: f"{o.max_error_crowd:.4f}"),
        ("digest", lambda o: o.digest),
    ),
    evaluate=evaluate,
)


if __name__ == "__main__":
    import sys

    from ..cli import main

    raise SystemExit(main(["flash-crowd", *sys.argv[1:]]))
