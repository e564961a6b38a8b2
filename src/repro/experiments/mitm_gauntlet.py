"""MITM gauntlet: an on-path adversary versus three defense postures.

Rules MM-1/MM-2 assume the network only *delays* messages (Section 2.2
bounds the one-way delay by ξ); nothing in the paper defends against a
network that rewrites, replays, or substitutes them.  This gauntlet
measures exactly that gap and what the :mod:`repro.security` layer buys
back.  Four attack cells — tamper, replay, delay attack, spoofed
replies — each run under three arms:

* ``plain`` — the paper's :class:`~repro.service.server.TimeServer`,
  trusting every bit on the wire;
* ``hardened`` — :class:`~repro.service.hardening.HardenedTimeServer`:
  plausibility validation, health-score quarantine, but no
  cryptography and no transit-physics check;
* ``authenticated`` —
  :class:`~repro.security.server.AuthenticatedTimeServer`: keyed MACs
  over a canonical encoding, per-request nonces, a per-peer
  anti-replay window, and the delay guard judging measured RTTs
  against the links' declared delay models.

Topology is a five-server full mesh with one well-synchronized server
(``S1``, tiny initial error) and four cold-start servers (large initial
error) — the cold start is what makes the delay attack bite: a victim
whose inherited error exceeds one poll period will happily adopt a
period-stale claim served implausibly fast.

Each run is watched by the **strict** invariant oracle (no fault
schedule, hence no exemption windows: a poisoned victim is a violation,
full stop) and by a taint oracle: the injector remembers the identity
of every forged/replayed reply it delivered
(:func:`~repro.faults.injector.taint_key`), and every server's reply
acceptance path is wrapped to count how many of those poisoned
messages it *accepted*.

Acceptance (:func:`evaluate`):

* the ``plain`` arm is poisoned — strict-oracle violations — in at
  least the tamper and delay-attack cells (round ids incidentally
  defeat verbatim cross-round replays even unauthenticated, which the
  replay cell demonstrates);
* the ``authenticated`` arm shows **zero** invariant violations and
  **zero** accepted tainted replies in **every** cell;
* the authenticated defenses demonstrably fired where they should:
  MAC failures in the tamper cell, replay drops in the replay cell,
  delay-attack detections in the delay and spoof cells;
* the whole matrix is deterministically replayable: re-running a
  (cell, arm, seed) combination yields an identical trace digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..core.mm import MMPolicy
from ..faults import (
    DelayAttack,
    FaultSchedule,
    MessageReplay,
    MessageTamper,
    SpoofedReply,
    attach_chaos,
)
from ..faults.injector import FaultInjector, taint_key
from ..network.delay import UniformDelay
from ..network.topology import full_mesh
from ..security import Keyring, SecurityConfig
from ..service.builder import ServerSpec, SimulatedService, build_service
from ..service.hardening import HardeningConfig
from ..simulation.trace import trace_digest
from ..telemetry import ServiceTelemetry
from . import gauntlet

#: The three defense postures.
ARMS = ("plain", "hardened", "authenticated")

#: Servers in the full mesh (S1 plus four cold-start victims).
N_SERVERS = 5

#: Claimed maximum drift rate δ for every server.
DELTA = 1e-4

#: Actual skews: S1 is nearly true; the victims drift but stay below δ.
SKEWS = (1e-5, 6e-5, -7e-5, 8e-5, -5e-5)

#: S1's initial error — the attractive source everyone adopts from.
SOURCE_ERROR = 0.01

#: The victims' cold-start initial error.  Deliberately larger than one
#: poll period: rule MM-2's consistency gate only admits a period-stale
#: claim while the victim's own error still covers the staleness, which
#: is exactly the window the delay attack needs.
COLD_ERROR = 15.0

#: Link physics: one-way delay uniform on [2 ms, 10 ms].  The declared
#: floor gives the delay guard a 4 ms round-trip minimum to judge
#: against; the adversary's races arrive far below it.
ONE_WAY_MIN = 0.002
ONE_WAY_BOUND = 0.01

#: Poll period.  Short, so the delay attack's held-back data is exactly
#: one period (10 s) stale — far beyond any honest uncertainty.
TAU = 10.0

#: Attacks start immediately (the victims must still be cold) and cover
#: most of the horizon.
ATTACK_AT = 0.0
ATTACK_DURATION = 360.0
HORIZON = 400.0

#: Oracle sweep period and true-offset sampling grid.
MONITOR_PERIOD = 5.0
SAMPLE_STEP = 5.0


@dataclass(frozen=True)
class GauntletCell:
    """One attack shape of the matrix.

    Attributes:
        label: Short name used in tables and artefact paths.
        attack: ``"tamper"``, ``"replay"``, ``"delay"``, or ``"spoof"``.
    """

    label: str
    attack: str


CELLS = (
    GauntletCell("tamper", "tamper"),
    GauntletCell("replay", "replay"),
    GauntletCell("delay", "delay"),
    GauntletCell("spoof", "spoof"),
)

#: Tamper shift (seconds) and per-message probability.  0.3 s is far
#: outside every honest uncertainty yet tiny against a cold victim's
#: 15 s error — the forged claim passes the consistency gate, then the
#: victim's truth sits 0.3 s outside its adopted interval.
TAMPER_OFFSET = 0.3
TAMPER_PROBABILITY = 0.7

#: Replay hold: longer than one poll period, so the copy lands in a
#: later round (the round-id/nonce gate's territory).
REPLAY_HOLD = 12.0
REPLAY_PROBABILITY = 0.5

#: The adversary's race delay — far below the 4 ms link floor.
FAST_DELAY = 0.0005

#: The delay attack / spoof target edge: victim S2, impersonated S1.
VICTIM = "S2"
UPSTREAM = "S1"


def _schedule(cell: GauntletCell) -> FaultSchedule:
    if cell.attack == "tamper":
        event = MessageTamper(
            at=ATTACK_AT,
            offset=TAMPER_OFFSET,
            probability=TAMPER_PROBABILITY,
            duration=ATTACK_DURATION,
        )
    elif cell.attack == "replay":
        event = MessageReplay(
            at=ATTACK_AT,
            probability=REPLAY_PROBABILITY,
            hold=REPLAY_HOLD,
            duration=ATTACK_DURATION,
        )
    elif cell.attack == "delay":
        event = DelayAttack(
            at=ATTACK_AT,
            a=VICTIM,
            b=UPSTREAM,
            fast_delay=FAST_DELAY,
            duration=ATTACK_DURATION,
        )
    elif cell.attack == "spoof":
        event = SpoofedReply(
            at=ATTACK_AT,
            server=UPSTREAM,
            victim=VICTIM,
            offset=TAMPER_OFFSET,
            claimed_error=0.01,
            fast_delay=FAST_DELAY,
            duration=ATTACK_DURATION,
        )
    else:
        raise ValueError(f"unknown attack kind {cell.attack!r}")
    return FaultSchedule().add(event)


def _build(arm: str, seed: int, *, telemetry=None) -> SimulatedService:
    graph = full_mesh(N_SERVERS)
    names = sorted(graph.nodes)
    specs = [
        ServerSpec(
            name,
            delta=DELTA,
            skew=skew,
            initial_error=SOURCE_ERROR if name == UPSTREAM else COLD_ERROR,
        )
        for name, skew in zip(names, SKEWS)
    ]
    kwargs = {}
    if arm in ("hardened", "authenticated"):
        kwargs["hardening"] = HardeningConfig()
    if arm == "authenticated":
        # One keyring instance shared by every server of the run (the
        # builder passes the same SecurityConfig to each), derived from
        # the seed so distinct seeds exercise distinct keys.
        kwargs["security"] = SecurityConfig(
            keyring=Keyring.from_secret(f"mitm-gauntlet-{seed}")
        )
    return build_service(
        graph,
        specs,
        policy=MMPolicy(),
        tau=TAU,
        seed=seed + 9000,
        lan_delay=UniformDelay(ONE_WAY_BOUND, minimum=ONE_WAY_MIN),
        wan_delay=UniformDelay(ONE_WAY_BOUND, minimum=ONE_WAY_MIN),
        telemetry=telemetry,
        **kwargs,
    )


def _arm_taint_oracle(
    service: SimulatedService, injector: FaultInjector
) -> Dict[str, int]:
    """Wrap every server's reply-acceptance path with the taint check.

    ``_observe_reply`` runs exactly once per reply that survived every
    gate (round/nonce match, validation, admission) — i.e. once per
    reply the server *accepted* into its synchronization policy.
    Membership is checked against the injector's live taint set, so a
    reply recorded as genuine and only replayed later does not
    retroactively count its original, legitimate acceptance.
    """
    accepted_tainted: Dict[str, int] = {name: 0 for name in service.servers}
    for name, server in service.servers.items():
        original = server._observe_reply

        def wrapped(
            reply, rtt_local, local_now, _orig=original, _name=name
        ):
            if taint_key(reply) in injector.taint_keys:
                accepted_tainted[_name] += 1
            _orig(reply, rtt_local, local_now)

        server._observe_reply = wrapped
    return accepted_tainted


@dataclass(frozen=True)
class GauntletOutcome:
    """One (cell, arm, seed) run.

    Attributes:
        cell: The matrix cell's label.
        arm: "plain", "hardened", or "authenticated".
        seed: Root seed for the whole run.
        horizon: Total simulated seconds.
        trace_digest: Fingerprint of the full run trace.
        peak_true_offset: Largest |true offset| of any server during the
            attack window — how far the adversary actually moved a
            clock.
        final_max_error: Largest claimed error at the end of the run
            (small = the arm still converged despite the attack).
        checks: Strict-oracle sweeps performed.
        violations: Strict-oracle invariant violations (a poisoned
            victim; must be 0 in the authenticated arm).
        accepted_tainted: Forged/replayed replies any server accepted
            past every gate (must be 0 in the authenticated arm).
        tampered: Messages the adversary rewrote in flight.
        replayed: Extra verbatim deliveries the adversary made.
        swallowed: Genuine replies the delay attacker held back.
        spoofed: Forged replies the spoofer raced to the victim.
        auth_failures: MAC rejections across all servers (authenticated
            arm only; 0 elsewhere).
        replay_drops: Anti-replay window rejections (authenticated arm).
        delay_detections: Delay-guard rejections (authenticated arm).
        quarantines: Peers quarantined by the health machinery
            (hardened and authenticated arms).
    """

    cell: str
    arm: str
    seed: int
    horizon: float
    trace_digest: int
    peak_true_offset: float
    final_max_error: float
    checks: int
    violations: int
    accepted_tainted: int
    tampered: int
    replayed: int
    swallowed: int
    spoofed: int
    auth_failures: int
    replay_drops: int
    delay_detections: int
    quarantines: int


def run_gauntlet(
    cell: GauntletCell,
    arm: str = "authenticated",
    seed: int = 0,
    *,
    telemetry=None,
) -> GauntletOutcome:
    """One arm through one attack cell.

    Args:
        cell: The attack shape.
        arm: "plain", "hardened", or "authenticated".
        seed: Root seed; one seed fixes the whole run (service RNG,
            delays, per-message attack decisions).
        telemetry: Optional :class:`~repro.telemetry.ServiceTelemetry`;
            its registry also receives the security counters and the
            oracle counters.
    """
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}; expected one of {ARMS}")
    service = _build(arm, seed, telemetry=telemetry)
    # strict: adversary faults earn no invariant exemptions — a poisoned
    # victim is a violation even while the attack runs.
    injector, oracle = attach_chaos(
        service, _schedule(cell), monitor_period=MONITOR_PERIOD, strict=True
    )
    accepted_tainted = _arm_taint_oracle(service, injector)

    peak = 0.0
    t = 0.0
    while t < HORIZON:
        t = min(t + SAMPLE_STEP, HORIZON)
        service.run_until(t)
        snap = service.snapshot()
        if t <= ATTACK_AT + ATTACK_DURATION:
            peak = max(peak, max(abs(o) for o in snap.offsets.values()))
    snap = service.snapshot()

    auth_failures = replay_drops = delay_detections = quarantines = 0
    for server in service.servers.values():
        stats = getattr(server, "security_stats", None)
        if stats is not None:
            auth_failures += stats.auth_failures
            replay_drops += stats.replay_drops
            delay_detections += stats.delay_attack_detections
        quarantined = getattr(server, "quarantined_peers", None)
        if callable(quarantined):
            quarantines += len(quarantined())
    return GauntletOutcome(
        cell=cell.label,
        arm=arm,
        seed=seed,
        horizon=HORIZON,
        trace_digest=trace_digest(service.trace),
        peak_true_offset=peak,
        final_max_error=snap.max_error,
        checks=oracle.stats.checks,
        violations=oracle.stats.total_violations,
        accepted_tainted=sum(accepted_tainted.values()),
        tampered=injector.stats.messages_tampered,
        replayed=injector.stats.messages_replayed,
        swallowed=injector.stats.replies_delayed,
        spoofed=injector.stats.replies_spoofed,
        auth_failures=auth_failures,
        replay_drops=replay_drops,
        delay_detections=delay_detections,
        quarantines=quarantines,
    )


#: Cells in which the plain arm must demonstrably be poisoned.
POISONED_CELLS = ("tamper", "delay")


def evaluate(outcomes: Sequence[GauntletOutcome]) -> List[str]:
    """The acceptance criteria, as a list of failures (empty = pass)."""
    problems: List[str] = []
    for o in outcomes:
        if o.arm == "plain" and o.cell in POISONED_CELLS:
            if o.violations == 0:
                problems.append(
                    f"{o.cell} seed {o.seed}: plain arm survived — the "
                    f"attack should have poisoned an unauthenticated victim"
                )
        if o.arm == "authenticated":
            if o.violations:
                problems.append(
                    f"{o.cell} seed {o.seed}: authenticated arm saw "
                    f"{o.violations} invariant violation(s)"
                )
            if o.accepted_tainted:
                problems.append(
                    f"{o.cell} seed {o.seed}: authenticated arm accepted "
                    f"{o.accepted_tainted} forged/replayed reply(ies)"
                )
            if o.cell == "tamper" and o.auth_failures == 0:
                problems.append(
                    f"tamper seed {o.seed}: no MAC failures — the tamper "
                    f"tap did not bite"
                )
            if o.cell == "replay" and o.replay_drops == 0:
                problems.append(
                    f"replay seed {o.seed}: no anti-replay drops — the "
                    f"replay tap did not bite"
                )
            if o.cell in ("delay", "spoof") and o.delay_detections == 0:
                problems.append(
                    f"{o.cell} seed {o.seed}: no delay-attack detections — "
                    f"the race was not judged against the link floor"
                )
    return problems


GAUNTLET = gauntlet.Gauntlet(
    name="mitm-gauntlet",
    run=run_gauntlet,
    cells=CELLS,
    arms=ARMS,
    setting={
        "topology": f"full_mesh({N_SERVERS})",
        "tau": TAU,
        "attack_at": ATTACK_AT,
        "attack_duration": ATTACK_DURATION,
    },
    columns=(
        ("cell", lambda o: o.cell),
        ("arm", lambda o: o.arm),
        ("seed", lambda o: o.seed),
        ("peak off s", lambda o: f"{o.peak_true_offset:.3f}"),
        ("viol", lambda o: o.violations),
        ("taint-acc", lambda o: o.accepted_tainted),
        ("attacks", lambda o: o.tampered + o.replayed + o.swallowed + o.spoofed),
        ("mac-fail", lambda o: o.auth_failures),
        ("replay-drop", lambda o: o.replay_drops),
        ("delay-det", lambda o: o.delay_detections),
        ("quar", lambda o: o.quarantines),
        ("trace digest", lambda o: f"{o.trace_digest:08x}"),
    ),
    evaluate=evaluate,
    telemetry=lambda: ServiceTelemetry(spans=False, sample_period=TAU),
    summary=(
        "cell",
        "arm",
        "seed",
        "violations",
        "accepted_tainted",
        "peak_true_offset",
    ),
)


if __name__ == "__main__":
    raise SystemExit(gauntlet.main(GAUNTLET))
