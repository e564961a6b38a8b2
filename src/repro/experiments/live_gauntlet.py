"""The live gauntlet: real processes, real packets, injected faults.

Five time-server processes run on loopback UDP under a
:class:`~repro.runtime.supervisor.ClusterSupervisor`, every data packet
routed through a :class:`~repro.runtime.proxy.ChaosProxy` injecting 10%
steady loss, a delay spike, and an on-path tamper window, while one node
is crashed with ``SIGKILL`` mid-run and restarted by the supervisor's
backoff machinery.  Two arms run the identical scenario:

* **plain** — the paper's trusting :class:`~repro.service.server.
  TimeServer`.  Rule MM-2's consistency check makes a steady-state
  server surprisingly tamper-resistant — a forged value far outside its
  few-millisecond interval is "inconsistent with ``S_i``" and ignored —
  so the attack targets the one moment the paper itself flags as
  delicate: a **rejoining** server (Section 3) whose interval is wide
  open.  The tamper window brackets the crash victim's restart and
  shifts the anchors' replies by −60 ms: the forgery is consistent with
  the rejoiner's ±80 ms interval, gets adopted with a tiny inherited
  error (the clock visibly steps *backwards*), and from then on honest
  replies are the ones rejected as inconsistent — the node is stuck
  wrong, and the live invariant probes count every 50 ms of it.
* **hardened** — :class:`~repro.runtime.node.LiveAuthenticatedServer`:
  hardening + authentication + slewing rails.  Tampered replies fail
  their MAC, delay physics guard the spike, pending slew is charged to
  ``ε``, and every adopted interval stays MM-1-valid: the acceptance
  bar is **zero** MM-1 and **zero** monotonicity violations over the
  whole run.

The cluster needs continuous adoption pressure for the attack to bite:
the anchor ``S1`` claims a 10× tighter drift bound than the loose
servers, so their reported errors outgrow its own and rule MM-2 keeps
re-adopting from it every few seconds — exactly the paper's "good
clocks discipline bad ones" dynamic, here measured over real sockets
with live ξ (max observed round trip) in the report.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults.schedule import DelaySpike, MessageTamper
from ..runtime.proxy import ChaosProxy
from ..runtime.supervisor import ClusterSupervisor, NodeSpec, RestartPolicy
from . import gauntlet

__all__ = ["GAUNTLET", "LiveOutcome", "NodeMetrics", "evaluate", "run_arm"]

TAU = 0.75
ONE_WAY_BOUND = 0.25  # declared; ξ = 0.5 s
LOSS = 0.10
#: Negative and larger than the probe spacing: adoption is a visible
#: backward step, yet small enough to sit inside a rejoining server's
#: wide-open ±``initial_error`` interval (a steady-state interval is a
#: few ms wide and rule MM-2 would discard anything outside it).
TAMPER_OFFSET = -0.06
SCRAPE_PERIOD = 0.5
CRASH_VICTIM = "S4"

#: (name, skew, claimed delta, initial offset, initial error).  The
#: anchor S1 claims δ ten times tighter than the loose servers, so the
#: loose errors outgrow it and adoptions recur throughout the run.
NODE_PARAMS: List[Tuple[str, float, float, float, float]] = [
    ("S1", 2e-5, 5e-5, 0.001, 0.003),
    ("S2", -2e-5, 5e-5, -0.002, 0.006),
    ("S3", 2e-4, 5e-4, 0.006, 0.08),
    ("S4", -2e-4, 5e-4, 0.008, 0.08),
    ("S5", 1e-4, 5e-4, -0.005, 0.08),
]

ARM_KINDS = {"plain": "plain", "hardened": "authenticated"}


def _free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    socks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(count)]
    try:
        for sock in socks:
            sock.bind((host, 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def _accumulate(series: List[Dict[str, Any]]) -> Dict[str, float]:
    """Total invariant counters across process incarnations.

    A crash-restart resets a node's counters; an incarnation boundary
    shows as the probe count dropping.  Summing the per-incarnation
    maxima gives the true run total.
    """
    totals = {"probes": 0.0, "mm1_violations": 0.0, "monotonicity_violations": 0.0,
              "max_true_error": 0.0, "max_excess": float("-inf")}
    last_probes = None
    acc = {"probes": 0.0, "mm1_violations": 0.0, "monotonicity_violations": 0.0}
    for snap in series:
        inv = snap["invariants"]
        if last_probes is not None and inv["probes"] < last_probes:
            for key in acc:
                totals[key] += acc[key]
            acc = {key: 0.0 for key in acc}
        for key in acc:
            acc[key] = inv[key]
        last_probes = inv["probes"]
        totals["max_true_error"] = max(totals["max_true_error"], inv["max_true_error"])
        totals["max_excess"] = max(totals["max_excess"], inv["max_excess"])
    for key in acc:
        totals[key] += acc[key]
    if totals["max_excess"] == float("-inf"):
        totals["max_excess"] = 0.0
    return totals


@dataclass
class NodeMetrics:
    """Telemetry sink of one live arm: every node's Prometheus text,
    scraped before the cluster drains, written as ``<node>.prom``."""

    texts: Dict[str, Optional[str]] = field(default_factory=dict)

    def write(self, directory: str, *, summary_extra=None) -> None:
        os.makedirs(directory, exist_ok=True)
        for name, text in self.texts.items():
            if text:
                with open(os.path.join(directory, f"{name}.prom"), "w") as fh:
                    fh.write(text)


@dataclass(frozen=True)
class LiveOutcome:
    """One arm of one seed over real sockets: per-node invariant totals
    (summed across process incarnations), counters and RTT samples in
    ``nodes``; cluster-wide totals, the declared ξ against the largest
    round trip measured (``xi_live``), and the proxy's counters."""

    arm: str
    kind: str
    seed: int
    duration: float
    booted: bool
    loss: float
    nodes: Dict[str, Any]
    mm1_violations: int
    monotonicity_violations: int
    xi_live: float
    xi_declared: float
    rtt_count: int
    crash_restarts: int
    drained: Any
    proxy: Dict[str, Any]


async def run_arm(
    arm: str,
    *,
    seed: int,
    duration: float,
    loss: float = LOSS,
    with_faults: bool = True,
    telemetry: Optional[NodeMetrics] = None,
) -> LiveOutcome:
    """One arm's cluster, start to drain (run arms one at a time: one
    cluster at a time keeps loopback RTTs honest)."""
    kind = ARM_KINDS[arm]
    epoch = time.monotonic()
    names = [p[0] for p in NODE_PARAMS]
    ports = _free_ports(len(names))
    peers = {name: ["127.0.0.1", port] for name, port in zip(names, ports)}
    edges = [[a, b] for i, a in enumerate(names) for b in names[i + 1 :]]

    proxy = ChaosProxy(
        addresses={n: (h, p) for n, (h, p) in peers.items()},
        loss=loss,
        seed=seed,
        epoch=epoch,
        nominal_one_way=0.001,
    )
    proxy_addr = await proxy.start()

    specs = []
    for index, (name, skew, delta, offset, eps) in enumerate(NODE_PARAMS):
        config = dict(
            name=name,
            host="127.0.0.1",
            port=peers[name][1],
            peers=peers,
            edges=edges,
            epoch=epoch,
            via=list(proxy_addr),
            kind=kind,
            tau=TAU,
            delta=delta,
            skew=skew,
            initial_offset=offset,
            initial_error=eps,
            one_way_bound=ONE_WAY_BOUND,
            poll_phase=0.3 + 0.15 * index,
            probe_period=0.05,
            seed=seed * 100 + index,
            secret="repro-live",
        )
        specs.append(NodeSpec(name=name, config=config))

    supervisor = ClusterSupervisor(
        specs, restart=RestartPolicy(base=0.2, factor=2.0, max_delay=2.0)
    )
    series: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    try:
        await supervisor.start()
        booted = await supervisor.wait_ready(timeout=45.0)
        start = time.monotonic() - epoch  # measurement-window origin, axis time
        if with_faults:
            # The tamper window brackets the crash victim's backoff +
            # respawn + first poll round; both anchors are tampered so
            # the rejoiner's first-arriving reply is a forgery even
            # under the steady 10% loss.
            tamper_at = start + 0.35 * duration
            tamper_for = 0.35 * duration
            proxy.events = sorted(
                [
                    DelaySpike(at=start + 0.20 * duration, scale=1.0,
                               extra=0.15, duration=0.15 * duration),
                    MessageTamper(at=tamper_at, a="S1", offset=TAMPER_OFFSET,
                                  probability=1.0, duration=tamper_for),
                    MessageTamper(at=tamper_at, a="S2", offset=TAMPER_OFFSET,
                                  probability=1.0, duration=tamper_for),
                ],
                key=lambda e: e.at,
            )
        crashed = False
        crash_elapsed = 0.30 * duration
        while time.monotonic() - epoch - start < duration:
            await asyncio.sleep(SCRAPE_PERIOD)
            elapsed = time.monotonic() - epoch - start
            if with_faults and not crashed and elapsed >= crash_elapsed:
                supervisor.kill(CRASH_VICTIM)
                crashed = True
            for name, snap in (await supervisor.scrape(timeout=0.5)).items():
                if snap is not None:
                    series[name].append(snap)
        final = await supervisor.scrape(timeout=2.0)
        for name, snap in final.items():
            if snap is not None:
                series[name].append(snap)
        if telemetry is not None:
            telemetry.texts = await supervisor.metrics(timeout=2.0)
        drained = await supervisor.drain(grace=3.0)
    finally:
        supervisor.close()
        proxy.close()

    nodes: Dict[str, Any] = {}
    mm1_total = 0
    mono_total = 0
    xi_live = 0.0
    rtt_count = 0
    for name in names:
        snaps = series[name]
        inv = _accumulate(snaps)
        last = snaps[-1] if snaps else None
        rtt = (last or {}).get("rtt", {"count": 0, "mean": None, "max": None, "p95": None})
        if rtt.get("max"):
            xi_live = max(xi_live, rtt["max"])
        rtt_count += rtt.get("count") or 0
        nodes[name] = {
            "invariants": inv,
            "rounds": (last or {}).get("rounds", 0),
            "resets": (last or {}).get("resets", 0),
            "rejects": (last or {}).get("rejects", 0),
            "rtt": rtt,
            "rtt_samples": (last or {}).get("rtt_samples", []),
            "security": (last or {}).get("security"),
            "restarts": supervisor.specs[name].restarts,
            "scrapes": len(snaps),
        }
        mm1_total += int(inv["mm1_violations"])
        mono_total += int(inv["monotonicity_violations"])

    return LiveOutcome(
        arm=arm,
        kind=kind,
        seed=seed,
        duration=duration,
        booted=booted,
        loss=loss,
        nodes=nodes,
        mm1_violations=mm1_total,
        monotonicity_violations=mono_total,
        xi_live=xi_live,
        xi_declared=2.0 * ONE_WAY_BOUND,
        rtt_count=rtt_count,
        crash_restarts=supervisor.crash_restarts,
        drained=drained,
        proxy=vars(proxy.stats).copy(),
    )


def evaluate(outcomes: Sequence[LiveOutcome]) -> List[str]:
    """The acceptance criteria, as a list of failures (empty = pass): the
    hardened arm booted, measured round trips, and held zero MM-1 and
    zero monotonicity violations.  The plain arm is reported only."""
    return [
        f"hardened seed {o.seed}: booted={o.booted}, {o.rtt_count} round "
        f"trip(s), {o.mm1_violations} MM-1 and {o.monotonicity_violations} "
        f"monotonicity violation(s)"
        for o in outcomes
        if o.arm == "hardened"
        and not (
            o.booted
            and o.rtt_count
            and o.mm1_violations == 0
            and o.monotonicity_violations == 0
        )
    ]


def _run(cell, arm: str, seed: int, **params) -> LiveOutcome:
    return asyncio.run(run_arm(arm, seed=seed, **params))


GAUNTLET = gauntlet.Gauntlet(
    name="live-gauntlet",
    run=_run,
    arms=tuple(ARM_KINDS),
    seeds=(0,),
    params={"duration": 12.0},
    setting={"nodes": len(NODE_PARAMS), "loss": LOSS},
    columns=(
        ("seed", lambda o: o.seed),
        ("arm", lambda o: o.arm),
        ("mm1", lambda o: o.mm1_violations),
        ("mono", lambda o: o.monotonicity_violations),
        ("xi_live s", lambda o: f"{o.xi_live:.4f}"),
        ("declared s", lambda o: f"{o.xi_declared:.2f}"),
        ("rtt_n", lambda o: o.rtt_count),
        ("restarts", lambda o: o.crash_restarts),
    ),
    evaluate=evaluate,
    telemetry=lambda **_: NodeMetrics(),
    bundle=gauntlet.NODE_BUNDLE,
)
