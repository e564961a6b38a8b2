"""Service assembly: declarative construction of a whole simulated service.

Experiments and examples describe a service as a topology plus a list of
:class:`ServerSpec` rows; :func:`build_service` wires up the engine, RNG
streams, network, clocks, servers and trace, returning a
:class:`SimulatedService` façade with the sampling helpers every experiment
needs (snapshots, error/asynchronism metrics, grid sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

import networkx as nx

from ..byzantine.server import ByzantineConfig, ByzantineTolerantServer
from ..clocks.base import Clock
from ..clocks.disciplined import DisciplinedClock
from ..clocks.drift import DriftingClock
from ..clocks.slewing import SlewingClock
from ..core.intervals import TimeInterval, intersect_all
from ..core.recovery import RecoveryStrategy
from ..core.sync import SynchronizationPolicy
from ..holdover.controller import HoldoverConfig
from ..holdover.server import HoldoverServer
from ..load.capacity import CapacityConfig
from ..load.client import ResilienceConfig, ResilientTimeClient
from ..load.server import LoadAwareServer, LoadPolicy
from ..network.delay import DelayModel, UniformDelay
from ..network.transport import Network
from ..recovery.server import SelfStabilizingServer
from ..recovery.stabilizer import StabilizerConfig
from ..recovery.store import StableStore
from ..security.server import AuthenticationMixin, SecurityConfig
from ..simulation.engine import SimulationEngine
from ..simulation.rng import RngRegistry
from ..simulation.trace import TraceRecorder
from ..telemetry.instruments import NULL_SERVICE_TELEMETRY, ServiceTelemetry
from .client import TimeClient
from .discipline import DiscipliningServer
from .hardening import HardenedTimeServer, HardeningConfig
from .rate_tracking import RateTrackingServer
from .reference import ReferenceServer
from .server import TimeServer

#: Builds a clock for a server, given the registry and the server's name
#: (so stochastic clocks can claim a dedicated stream).
ClockFactory = Callable[[RngRegistry, str], Clock]

#: Builds a per-server policy (factories allow per-server ablation flags).
PolicyFactory = Callable[[str], Optional[SynchronizationPolicy]]

#: Builds a per-server recovery strategy.
RecoveryFactory = Callable[[str], Optional[RecoveryStrategy]]


@dataclass(frozen=True)
class ServerSpec:
    """Declarative description of one server.

    Attributes:
        name: Topology node name.
        delta: Claimed maximum drift rate ``δ_i``.
        skew: Shortcut — a constant actual skew; builds a
            :class:`DriftingClock`.  Ignored when ``clock_factory`` is set.
        clock_factory: Full control over the clock construction.
        initial_error: ``ε_i`` at start.
        reference: Adds the ``reference`` layer, a :class:`ReferenceServer`
            (answer-only, perfect clock; only ``security`` composes with
            it); ``initial_error`` becomes the receiver error.
        polls: Whether the server runs synchronization rounds (reference
            servers never do).
        rate_tracking: Adds the
            :class:`~repro.service.rate_tracking.RateTrackingServer` layer
            (Section 5 consonance machinery).
        discipline: Adds the
            :class:`~repro.service.discipline.DiscipliningServer` layer,
            which trims its own frequency from the measured neighbour
            rates (implies ``rate_tracking``); the clock is wrapped in a
            :class:`~repro.clocks.disciplined.DisciplinedClock`.
        self_stabilizing: Adds the
            :class:`~repro.recovery.server.SelfStabilizingServer` layer
            (checkpointing, consistency census, merge epochs — implies
            ``rate_tracking``); all such servers share the service's
            :class:`~repro.recovery.store.StableStore`.
        byzantine_tolerant: Adds the
            :class:`~repro.byzantine.server.ByzantineTolerantServer` layer
            (implies ``self_stabilizing``); pair it with an
            :class:`~repro.core.ft_im.FTIMPolicy` via ``policy_factory``
            to get classification-driven reputation.
        holdover: Adds the :class:`~repro.holdover.server.HoldoverServer`
            layer (implies ``discipline`` and ``self_stabilizing``): the
            clock is stacked as a :class:`~repro.clocks.slewing.SlewingClock`
            over a :class:`DisciplinedClock`, and the server runs the
            SYNCED → HOLDOVER → DEGRADED → REINTEGRATING machine.  Knobs
            come from ``build_service``'s ``holdover`` config.
    """

    name: str
    delta: float = 0.0
    skew: float = 0.0
    clock_factory: Optional[ClockFactory] = None
    initial_error: float = 0.0
    reference: bool = False
    polls: bool = True
    rate_tracking: bool = False
    discipline: bool = False
    self_stabilizing: bool = False
    byzantine_tolerant: bool = False
    holdover: bool = False


@dataclass(frozen=True)
class ServiceSnapshot:
    """Per-server observables at one real time (oracle view included).

    Attributes:
        time: Real time of the snapshot.
        values: ``C_i(t)`` by server name.
        errors: ``E_i(t)`` by server name.
        offsets: ``C_i(t) - t`` by server name (oracle).
        correct: Whether each server's interval contains ``t`` (oracle).
    """

    time: float
    values: Dict[str, float]
    errors: Dict[str, float]
    offsets: Dict[str, float]
    correct: Dict[str, bool]

    def interval(self, name: str) -> TimeInterval:
        """Server ``name``'s interval at snapshot time."""
        return TimeInterval.from_center_error(self.values[name], self.errors[name])

    def intervals(self) -> Dict[str, TimeInterval]:
        """All intervals by name."""
        return {name: self.interval(name) for name in self.values}

    @property
    def min_error(self) -> float:
        """``E_M(t)`` — the smallest error in the service."""
        return min(self.errors.values())

    @property
    def max_error(self) -> float:
        """The largest error in the service."""
        return max(self.errors.values())

    @property
    def asynchronism(self) -> float:
        """``max |C_i - C_j|`` over all server pairs."""
        values = list(self.values.values())
        return max(values) - min(values) if values else 0.0

    @property
    def consistent(self) -> bool:
        """Whether all intervals share a common point (Section 2.3)."""
        return intersect_all(self.intervals().values()) is not None

    @property
    def all_correct(self) -> bool:
        """Oracle: every interval contains the true time."""
        return all(self.correct.values())


class SimulatedService:
    """A fully-wired simulated time service.

    Obtained from :func:`build_service`; exposes the engine, network, and
    servers plus the sampling helpers the experiments are written against.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        network: Network,
        servers: Dict[str, TimeServer],
        rng: RngRegistry,
        trace: TraceRecorder,
        xi: float,
        tau: Optional[float],
        stable_store: Optional[StableStore] = None,
        telemetry: Optional[ServiceTelemetry] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.servers = servers
        self.rng = rng
        self.trace = trace
        self.xi = xi
        self.tau = tau
        self.stable_store = stable_store
        self.telemetry = (
            telemetry if telemetry is not None else NULL_SERVICE_TELEMETRY
        )
        self.clients: List[TimeClient] = []

    # --------------------------------------------------------------- control

    def start(self) -> None:
        """Start every server (and client) that is not yet running."""
        for server in self.servers.values():
            server.start()
        for client in self.clients:
            client.start()

    def run_until(self, time: float) -> None:
        """Advance the simulation to absolute real time ``time``."""
        self.engine.advance_to(time)

    def add_client(
        self,
        name: str,
        *,
        clock: Optional[Clock] = None,
        delta: float = 0.0,
        timeout: float = 1.0,
        resilience: Optional[ResilienceConfig] = None,
    ) -> TimeClient:
        """Create, register and return a client occupying node ``name``.

        With ``resilience`` set the client is a
        :class:`~repro.load.client.ResilientTimeClient` (retries, circuit
        breakers, hedging) drawing its backoff jitter from the service's
        RNG registry; otherwise a plain :class:`TimeClient`.
        """
        if resilience is not None:
            client: TimeClient = ResilientTimeClient(
                self.engine,
                name,
                self.network,
                clock=clock,
                delta=delta,
                timeout=timeout,
                resilience=resilience,
                rng=self.rng.stream(f"client/{name}"),
            )
        else:
            client = TimeClient(
                self.engine,
                name,
                self.network,
                clock=clock,
                delta=delta,
                timeout=timeout,
            )
        self.network.register(client)
        self.clients.append(client)
        return client

    # -------------------------------------------------------------- sampling

    def snapshot(self) -> ServiceSnapshot:
        """Observe every server now (advancing nothing)."""
        t = self.engine.now
        values: Dict[str, float] = {}
        errors: Dict[str, float] = {}
        offsets: Dict[str, float] = {}
        correct: Dict[str, bool] = {}
        for name, server in self.servers.items():
            value, error = server.report()
            values[name] = value
            errors[name] = error
            offsets[name] = value - t
            correct[name] = (value - error) <= t <= (value + error)
        return ServiceSnapshot(
            time=t, values=values, errors=errors, offsets=offsets, correct=correct
        )

    def sample(self, times: Sequence[float]) -> List[ServiceSnapshot]:
        """Advance through ``times`` (ascending), snapshotting at each."""
        snapshots = []
        for t in times:
            self.run_until(t)
            snapshots.append(self.snapshot())
        return snapshots

    def server_names(self, polling_only: bool = False) -> List[str]:
        """Sorted server names, optionally restricted to polling servers."""
        names = []
        for name, server in sorted(self.servers.items()):
            if polling_only and server.policy is None:
                continue
            names.append(name)
        return names


class _SlewAwareMixin:
    """Charge pending slew to ``ε_i`` at reset, as the holdover layer does:
    until a :class:`SlewingClock` has applied a reset, the displayed clock
    is off by up to ``slew_remaining``, and MM-1 must cover that."""

    def _apply_reset(self, *args, **kwargs):
        result = super()._apply_reset(*args, **kwargs)
        pending = getattr(self.clock, "slew_remaining", 0.0)
        if pending:
            self._epsilon += abs(pending)
        return result


def _holdover_clock(clock: Clock, settings: dict[str, Any]) -> Clock:
    cfg = settings["holdover"]
    return SlewingClock(
        DisciplinedClock(clock),
        slew_rate=cfg.slew_rate,
        panic_threshold=cfg.panic_threshold,
        sanity_bound=cfg.sanity_bound,
    )


class ServerLayer(NamedTuple):
    """A layer's flag and class, the constructor kwargs it reads from the
    settings, the prefix of its ``<rng>_rng`` stream (named
    ``<rng>/<server>``), and how it wraps the server's clock."""

    name: str
    cls: type
    kwargs: tuple[str, ...] = ()
    rng: Optional[str] = None
    clock: Optional[Callable[[Clock, dict[str, Any]], Clock]] = None


_RECOVERY = ("store", "stabilizer_config")

#: Every server layer, outermost first: a server's MRO lists its layers'
#: classes in this order, then :class:`TimeServer`.  Implications (holdover
#: ⇒ discipline + self-stabilizing, ...) live in the classes' inheritance.
SERVER_LAYERS = (
    ServerLayer("slew_aware", _SlewAwareMixin),
    ServerLayer("authenticated", AuthenticationMixin, ("security",)),
    ServerLayer(
        "holdover", HoldoverServer, (*_RECOVERY, "holdover"), clock=_holdover_clock
    ),
    ServerLayer("discipline", DiscipliningServer, clock=lambda c, _: DisciplinedClock(c)),
    ServerLayer(
        "byzantine_tolerant", ByzantineTolerantServer, (*_RECOVERY, "byzantine")
    ),
    ServerLayer("self_stabilizing", SelfStabilizingServer, _RECOVERY),
    ServerLayer("rate_tracking", RateTrackingServer),
    ServerLayer("hardened", HardenedTimeServer, ("hardening",), "hardening"),
    ServerLayer("capacity", LoadAwareServer, ("capacity", "load_policy"), "load"),
    ServerLayer("reference", ReferenceServer),
)


@lru_cache(maxsize=None)
def _compose(layers: frozenset[str]) -> tuple[type, tuple[ServerLayer, ...]]:
    """The class carrying ``layers`` and its rows, minus any row whose
    class is an ancestor of another's (the descendant covers its kwargs
    and clock).  A single class is returned as itself."""
    if {"hardened", "byzantine_tolerant"} <= layers:
        raise ValueError(
            "server layers 'hardened' and 'byzantine_tolerant' do not "
            "compose: each keeps its own neighbour-health book"
        )
    beside_reference = sorted(layers - {"reference", "authenticated"})
    if "reference" in layers and beside_reference:
        raise ValueError(
            f"server layers 'reference' and {beside_reference[0]!r} do not "
            "compose: a reference server only answers, from a perfect clock"
        )
    rows = [row for row in SERVER_LAYERS if row.name in layers]
    if len(rows) != len(layers):
        raise ValueError(f"unknown server layer in {sorted(layers)}")
    bases = [row.cls for row in rows] + [TimeServer]
    bases = [
        b for b in bases if not any(o is not b and issubclass(o, b) for o in bases)
    ]
    rows = [row for row in rows if row.cls in bases]
    if len(bases) == 1:
        return bases[0], tuple(rows)
    name = "+".join(base.__name__ for base in bases)
    return type(name, tuple(bases), {"__module__": __name__}), tuple(rows)


def compose_server(
    layers: Iterable[str],
    settings: dict[str, Any],
    name: str,
    clock: Optional[Clock] = None,
) -> tuple[type, Optional[Clock], dict[str, Any]]:
    """Server ``name``'s class, wrapped clock and layer kwargs.

    ``settings`` holds the kwargs the rows read (a missing one is None)
    and ``rng``, a stream factory by name.  ``clock`` is the base clock
    (None for a reference server).  A clock with slew rails adds the
    ``slew_aware`` layer unless ``holdover``, which charges slew itself,
    is present.  Raises ValueError, naming both, on a refused pair.
    """
    layers = frozenset(layers)
    if "holdover" not in layers and hasattr(clock, "slew_remaining"):
        layers |= {"slew_aware"}
    server_class, rows = _compose(layers)
    kwargs = {}
    for row in rows:
        kwargs.update((key, settings.get(key)) for key in row.kwargs)
        if row.rng is not None:
            kwargs[f"{row.rng}_rng"] = settings["rng"](f"{row.rng}/{name}")
        if row.clock is not None:
            clock = row.clock(clock, settings)
    return server_class, clock, kwargs


def build_service(
    graph: nx.Graph,
    specs: Sequence[ServerSpec],
    *,
    policy: Optional[SynchronizationPolicy] = None,
    policy_factory: Optional[PolicyFactory] = None,
    tau: float = 60.0,
    seed: int = 0,
    lan_delay: Optional[DelayModel] = None,
    wan_delay: Optional[DelayModel] = None,
    long_haul: Optional[DelayModel] = None,
    loss_probability: float = 0.0,
    recovery_factory: Optional[RecoveryFactory] = None,
    round_timeout: Optional[float] = None,
    trace_enabled: bool = True,
    start: bool = True,
    stagger_polls: bool = True,
    hardening: Optional[HardeningConfig] = None,
    stabilizer: Optional[StabilizerConfig] = None,
    byzantine: Optional[ByzantineConfig] = None,
    capacity: Optional[CapacityConfig] = None,
    load_policy: Optional[LoadPolicy] = None,
    telemetry: Optional[ServiceTelemetry] = None,
    holdover: Optional[HoldoverConfig] = None,
    security: Optional[SecurityConfig] = None,
) -> SimulatedService:
    """Assemble a :class:`SimulatedService`.

    Args:
        graph: The service topology; every spec's name must be a node.
        specs: One :class:`ServerSpec` per server.
        policy: Shared synchronization policy for all polling servers
            (mutually exclusive with ``policy_factory``).
        policy_factory: Per-server policy construction.
        tau: Poll period τ.
        seed: Root seed for all randomness.
        lan_delay: Delay model for ordinary edges (default: uniform 0–50 ms,
            i.e. ξ = 0.1 s for a symmetric round trip).
        wan_delay: Delay model for ``kind="wan"`` edges.
        long_haul: Delay model enabling non-adjacent (other-network) sends.
        loss_probability: Per-message loss on every link.
        recovery_factory: Per-server recovery strategy construction.
        round_timeout: Override the servers' round timeout.
        trace_enabled: Record trace rows (disable for big sweeps).
        start: Start all servers immediately.
        stagger_polls: Give each server a deterministic phase offset so
            rounds do not all fire at the same instant.
        hardening: When set, every polling server gets the ``hardened``
            layer (:class:`~repro.service.hardening.HardenedTimeServer`:
            reply validation, retries, adaptive timeouts, neighbour
            quarantine) with this configuration.  Refused with
            ``byzantine_tolerant`` specs, which keep their own
            neighbour-health book.
        stabilizer: Recovery-subsystem knobs for servers with
            ``self_stabilizing=True`` (checkpoint cadence, census
            horizon, merge hysteresis); None uses
            :class:`~repro.recovery.stabilizer.StabilizerConfig` defaults.
        byzantine: Tolerance-layer knobs for servers with
            ``byzantine_tolerant=True`` (reputation, demotion, reply
            validation); None uses
            :class:`~repro.byzantine.server.ByzantineConfig` defaults.
        capacity: When set, every server gets the ``capacity`` layer
            (:class:`~repro.load.server.LoadAwareServer` with this
            service-time/queue model — requests cost simulated CPU and
            may be shed).  Refused with reference specs.
        load_policy: Overload defences for capacity-model servers
            (admission bucket, shedding policy, degraded mode); None
            uses :class:`~repro.load.server.LoadPolicy` defaults
            (everything on).
        telemetry: A :class:`~repro.telemetry.instruments.ServiceTelemetry`
            bundle to wire through every layer (per-server counters and
            spans, the engine observer, the periodic gauge sampler); None
            disables telemetry at zero hot-path cost.
        holdover: Holdover/safety-rail knobs for servers with
            ``holdover=True`` (no-source window, trust horizon,
            reintegration rounds, slew rate, panic/sanity bounds); None
            uses :class:`~repro.holdover.controller.HoldoverConfig`
            defaults.
        security: When set, every server — reference and non-polling
            ones included — gets the ``authenticated`` layer
            (:class:`~repro.security.server.AuthenticationMixin`) sharing
            this config's keyring: signed requests/replies, per-peer
            replay windows, and the delay guard.  Polling servers also get
            the ``hardened`` layer (default knobs unless ``hardening`` is
            set), except ``byzantine_tolerant`` ones, whose own
            neighbour-health book takes the security rejections.

    Each server's class is composed (:func:`compose_server`) from the
    :data:`SERVER_LAYERS` its spec flags and the rules above give it.

    Returns:
        The wired service (engine at ``t = 0``).

    Raises:
        ValueError: On duplicate/missing names, conflicting policy args,
            or a server whose layers do not compose (naming both).
    """
    if policy is not None and policy_factory is not None:
        raise ValueError("pass either policy or policy_factory, not both")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate server names in specs: {names}")
    missing = [name for name in names if name not in graph]
    if missing:
        raise ValueError(f"specs name servers not in the topology: {missing}")

    engine = SimulationEngine()
    rng = RngRegistry(seed=seed)
    trace = TraceRecorder(enabled=trace_enabled)
    if lan_delay is None:
        lan_delay = UniformDelay(0.05)
    network = Network(
        engine,
        graph,
        rng,
        lan_delay=lan_delay,
        wan_delay=wan_delay,
        loss_probability=loss_probability,
        long_haul=long_haul,
    )

    # Deterministic phase offsets: polling server k's first round fires at
    # (k + 1) / (n + 1) of a period, spreading rounds evenly across τ.
    policies: Dict[str, Optional[SynchronizationPolicy]] = {}
    for spec in specs:
        if spec.reference or not spec.polls:
            policies[spec.name] = None
        elif policy_factory is not None:
            policies[spec.name] = policy_factory(spec.name)
        else:
            policies[spec.name] = policy
    polling_names = [name for name, pol in policies.items() if pol is not None]
    phase: Dict[str, float] = {}
    if stagger_polls:
        for k, name in enumerate(sorted(polling_names)):
            phase[name] = tau * (k + 1) / (len(polling_names) + 1)

    service_telemetry = (
        telemetry if telemetry is not None else NULL_SERVICE_TELEMETRY
    )
    servers: Dict[str, TimeServer] = {}
    stable_store: Optional[StableStore] = None
    if any(
        spec.self_stabilizing or spec.byzantine_tolerant or spec.holdover
        for spec in specs
    ):
        stable_store = StableStore()
    settings = dict(
        rng=rng.stream,
        security=security,
        hardening=hardening,
        capacity=capacity,
        load_policy=load_policy,
        store=stable_store,
        stabilizer_config=stabilizer,
        byzantine=byzantine,
        holdover=holdover if holdover is not None else HoldoverConfig(),
    )
    for spec in specs:
        server_policy = policies[spec.name]
        # Each spec flag named after a layer adds it; then the service-wide
        # rules of the docstring.
        layers = {row.name for row in SERVER_LAYERS if getattr(spec, row.name, False)}
        if security is not None:
            layers.add("authenticated")
        if server_policy is not None and (
            hardening is not None
            or (security is not None and not spec.byzantine_tolerant)
        ):
            layers.add("hardened")
        if capacity is not None:
            layers.add("capacity")
        if spec.reference:
            server_class, _, extra = compose_server(layers, settings, spec.name)
            server: TimeServer = server_class(
                engine,
                spec.name,
                network,
                receiver_error=spec.initial_error,
                trace=trace,
                telemetry=service_telemetry.server(spec.name),
                **extra,
            )
        else:
            if spec.clock_factory is not None:
                clock = spec.clock_factory(rng, spec.name)
            else:
                clock = DriftingClock(spec.skew, epoch=0.0, initial=0.0)
            server_class, clock, extra = compose_server(
                layers, settings, spec.name, clock
            )
            server = server_class(
                engine,
                spec.name,
                clock,
                spec.delta,
                network,
                policy=server_policy,
                tau=tau if server_policy is not None else None,
                initial_error=spec.initial_error,
                round_timeout=round_timeout,
                recovery=recovery_factory(spec.name) if recovery_factory else None,
                trace=trace,
                first_poll_at=phase.get(spec.name),
                telemetry=service_telemetry.server(spec.name),
                **extra,
            )
        network.register(server)
        servers[spec.name] = server

    service = SimulatedService(
        engine,
        network,
        servers,
        rng,
        trace,
        xi=network.xi,
        tau=tau,
        stable_store=stable_store,
        telemetry=service_telemetry,
    )
    service_telemetry.attach(service)
    if start:
        service.start()
    return service
