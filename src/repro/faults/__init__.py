"""Chaos engineering for the simulated time service.

Three pieces, composable but independent:

* :mod:`~repro.faults.schedule` — a declarative, deterministic fault
  timeline (build programmatically or sample one from a seed);
* :mod:`~repro.faults.injector` — a process that replays a schedule
  against the live network, links, clocks and servers;
* :mod:`~repro.faults.monitor` — a continuous oracle asserting the
  paper's correctness invariants for every non-faulty server.

:func:`attach_chaos` wires all three onto a built service in one call::

    service = build_service(graph, specs, policy=MMPolicy(), ...)
    schedule = FaultSchedule.random(seed=7, names=[...], edges=[...],
                                    horizon=1800.0)
    injector, monitor = attach_chaos(service, schedule)
    service.run_until(1800.0)
    assert monitor.stats.total_violations == 0
"""

from __future__ import annotations

from typing import Optional, Tuple

from .injector import FaultInjector, InjectorStats, taint_key
from .monitor import InvariantMonitor, MonitorStats, Violation
from .schedule import (
    ADVERSARY_FAULT_KINDS,
    SERVER_FAULT_KINDS,
    TOPOLOGY_FAULT_KINDS,
    ByzantineReplies,
    CheckpointCorruption,
    ClockFreeze,
    ClockRace,
    ClockStep,
    DelayAttack,
    DelaySpike,
    EdgeChurn,
    FaultEvent,
    FaultSchedule,
    FaultWindow,
    LinkFlap,
    LossBurst,
    MessageCorruption,
    MessageDuplication,
    MessageReorder,
    MessageReplay,
    MessageTamper,
    MobilityTrace,
    PartitionFault,
    ReferenceBlackout,
    ServerCrash,
    SpoofedReply,
    TopologyRewire,
    TornCheckpoint,
    TotalPartition,
)

__all__ = [
    "ADVERSARY_FAULT_KINDS",
    "SERVER_FAULT_KINDS",
    "TOPOLOGY_FAULT_KINDS",
    "ByzantineReplies",
    "CheckpointCorruption",
    "ClockFreeze",
    "ClockRace",
    "ClockStep",
    "DelayAttack",
    "DelaySpike",
    "EdgeChurn",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FaultWindow",
    "InjectorStats",
    "InvariantMonitor",
    "LinkFlap",
    "LossBurst",
    "MessageCorruption",
    "MessageDuplication",
    "MessageReorder",
    "MessageReplay",
    "MessageTamper",
    "MobilityTrace",
    "MonitorStats",
    "PartitionFault",
    "ReferenceBlackout",
    "ServerCrash",
    "SpoofedReply",
    "TopologyRewire",
    "TornCheckpoint",
    "TotalPartition",
    "Violation",
    "attach_chaos",
    "taint_key",
]


def attach_chaos(
    service,
    schedule: Optional[FaultSchedule] = None,
    *,
    monitor_period: float = 5.0,
    monitor_grace: float = 2.0,
    monitor: bool = True,
    strict: bool = False,
    sync_window: Optional[float] = None,
    start: bool = True,
    registry=None,
    dynamic=None,
) -> Tuple[Optional[FaultInjector], Optional[InvariantMonitor]]:
    """Attach an injector (and optionally a monitor) to a built service.

    Args:
        service: A :class:`~repro.service.builder.SimulatedService`.
        schedule: The fault timeline to replay; None attaches the
            monitor alone.
        monitor_period: Seconds between invariant checks.
        monitor_grace: In-flight grace for taint attribution (see
            :class:`~repro.faults.monitor.InvariantMonitor`).
        monitor: Attach the invariant monitor at all.
        strict: Hold every server to the invariants at all times: the
            schedule's faults earn no exemption windows (the gauntlets'
            strict oracle).
        sync_window: The monitor's sync-plane progress window (None
            disables that check).
        start: Start both processes immediately.
        registry: Telemetry registry for the monitor's
            ``repro_invariant_checks_total`` counters.  None falls back
            to the service's own telemetry registry when one is enabled.
        dynamic: A :class:`~repro.dynamic.topology.DynamicTopology` layer
            for the schedule's topology events (``EdgeChurn`` etc.);
            those events are skipped when None.

    Returns:
        ``(injector, monitor)`` — injector is None without a schedule,
        monitor is None when disabled.
    """
    if registry is None:
        service_telemetry = getattr(service, "telemetry", None)
        if service_telemetry is not None and service_telemetry.registry.enabled:
            registry = service_telemetry.registry
    injector: Optional[FaultInjector] = None
    if schedule is not None:
        injector = FaultInjector(
            service.engine,
            service.network,
            service.servers,
            schedule,
            rng=service.rng.stream("faults/injector"),
            trace=service.trace,
            store=getattr(service, "stable_store", None),
            dynamic=dynamic,
        )
    watcher: Optional[InvariantMonitor] = None
    if monitor:
        watcher = InvariantMonitor(
            service.engine,
            service.servers,
            service.trace,
            None if strict else schedule,
            period=monitor_period,
            grace=monitor_grace,
            sync_window=sync_window,
            registry=registry,
        )
    if start:
        if injector is not None:
            injector.start()
        if watcher is not None:
            watcher.start()
    return injector, watcher
