"""Live loopback integration suite (marker ``runtime``).

Real UDP sockets and real subprocesses: an in-process mesh proving the
untouched policy core syncs over datagrams and answers a client, the
supervisor's crash/restart and graceful-drain machinery, and a short
fault-free run of the live gauntlet harness.  Everything binds loopback
on ephemeral ports; every test tears its cluster down in ``finally`` so
a failing assertion cannot leak node processes.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.experiments import live_gauntlet
from repro.experiments.live_gauntlet import _free_ports
from repro.runtime.node import build_node
from repro.runtime.supervisor import ClusterSupervisor, NodeSpec, RestartPolicy
from repro.service.messages import TimeReply, TimeRequest

pytestmark = pytest.mark.runtime


def _mesh_configs(names, *, kind="plain", extra_nodes=(), extra_edges=()):
    epoch = time.monotonic()
    everyone = list(names) + list(extra_nodes)
    ports = _free_ports(len(everyone))
    peers = {name: ["127.0.0.1", port] for name, port in zip(everyone, ports)}
    extra = {name: peers[name] for name in extra_nodes}
    edges = [[a, b] for i, a in enumerate(names) for b in names[i + 1:]]
    edges.extend(list(edge) for edge in extra_edges)
    configs = {}
    for index, name in enumerate(names):
        configs[name] = dict(
            name=name,
            host="127.0.0.1",
            port=peers[name][1],
            peers=peers,
            edges=edges,
            extra_nodes=list(extra_nodes),
            epoch=epoch,
            kind=kind,
            tau=0.4,
            delta=1e-4,
            skew=(-1) ** index * 5e-5,
            initial_offset=0.002 * index,
            initial_error=0.05,
            one_way_bound=0.05,
            poll_phase=0.15 + 0.05 * index,
            probe_period=0.05,
            seed=index,
        )
    return configs, peers, extra, epoch


class _ReplyBucket:
    """A fake client endpoint: collects whatever the transport delivers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.replies = []

    def deliver(self, message, sender) -> None:
        self.replies.append(message)


def test_in_process_mesh_syncs_and_answers_client_query():
    """Client query + MM poll rounds end to end over real datagrams."""
    names = ["S1", "S2", "S3"]
    configs, peers, extra, epoch = _mesh_configs(
        names, extra_nodes=("C1",), extra_edges=(("C1", "S1"),)
    )

    async def scenario():
        nodes = [build_node(configs[name]) for name in names]
        runners = []
        try:
            for node in nodes:
                await node.transport.start(
                    (node.config["host"], node.config["port"])
                )
                node.server.start()
                node.probe.start()
                runners.append(asyncio.ensure_future(node.engine.run()))

            # A client on its own socket, registered as topology node C1.
            client = build_node(
                dict(configs["S1"], name="C1", port=extra["C1"][1], kind="plain")
            )
            # Replace the server endpoint with a bare reply bucket: the
            # client transport only needs to route replies to C1.
            bucket = _ReplyBucket("C1")
            client.transport._processes.clear()
            client.transport.register(bucket)
            await client.transport.start(("127.0.0.1", extra["C1"][1]))

            try:
                await asyncio.sleep(1.5)  # a few tau=0.4 poll rounds
                client.transport.send(
                    "C1",
                    "S1",
                    TimeRequest(request_id=901, origin="C1", destination="S1"),
                )
                def answer():
                    # C1 is a topology node, so S1 also polls it; pick
                    # the actual answer out of the delivered traffic.
                    return next(
                        (m for m in bucket.replies
                         if isinstance(m, TimeReply) and m.request_id == 901),
                        None,
                    )

                deadline = time.monotonic() + 2.0
                while answer() is None and time.monotonic() < deadline:
                    await asyncio.sleep(0.02)

                reply = answer()
                assert reply is not None, "client query went unanswered"
                assert reply.server == "S1"
                assert abs(reply.clock_value - nodes[0].engine.now) < 1.0
                for node in nodes:
                    assert node.server.stats.rounds >= 1
                    assert node.server.is_correct()
                    assert node.probe.mm1_violations == 0
                assert any(node.transport.rtt.count > 0 for node in nodes)
            finally:
                client.transport.close()
        finally:
            for node in nodes:
                node.engine.stop()
            for runner in runners:
                try:
                    await asyncio.wait_for(runner, timeout=2.0)
                except (asyncio.TimeoutError, asyncio.CancelledError):
                    runner.cancel()
            for node in nodes:
                node.transport.close()

    asyncio.run(scenario())


def test_supervisor_restarts_after_sigkill():
    """A killed node comes back through the backoff path and re-syncs."""
    names = ["S1", "S2", "S3"]
    configs, _, _, _ = _mesh_configs(names, kind="hardened")

    async def scenario():
        specs = [NodeSpec(name=name, config=configs[name]) for name in names]
        supervisor = ClusterSupervisor(
            specs, restart=RestartPolicy(base=0.2, max_delay=1.0)
        )
        try:
            await supervisor.start()
            assert await supervisor.wait_ready(timeout=45.0)
            spec = supervisor.specs["S2"]
            old_pid = spec.process.pid
            assert supervisor.kill("S2")
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if (
                    spec.restarts >= 1
                    and spec.ready
                    and spec.process.pid != old_pid
                ):
                    break
                await asyncio.sleep(0.2)
            assert spec.restarts >= 1, "crash was never detected"
            assert spec.ready and spec.process.pid != old_pid, (
                "restarted node never came back"
            )
            assert supervisor.crash_restarts >= 1
            snap = None
            for _ in range(5):  # a fresh incarnation may still be booting
                snap = await supervisor.request("S2", {"op": "stats"}, timeout=2.0)
                if snap is not None:
                    break
                await asyncio.sleep(0.5)
            assert snap is not None and snap["name"] == "S2"
        finally:
            supervisor.close()

    asyncio.run(scenario())


def test_supervisor_graceful_drain():
    """Drain acks from every node and no surviving processes."""
    names = ["S1", "S2"]
    configs, _, _, _ = _mesh_configs(names)

    async def scenario():
        specs = [NodeSpec(name=name, config=configs[name]) for name in names]
        supervisor = ClusterSupervisor(specs)
        try:
            await supervisor.start()
            assert await supervisor.wait_ready(timeout=45.0)
            acked = await supervisor.drain(grace=3.0)
            assert all(acked.values()), f"drain not acknowledged: {acked}"
            for spec in supervisor.specs.values():
                assert spec.process is not None
                assert spec.process.poll() is not None
        finally:
            supervisor.close()

    asyncio.run(scenario())


def test_live_gauntlet_smoke_faultless_arm():
    """A short fault-free hardened run of the gauntlet harness is clean."""
    arm = asyncio.run(
        live_gauntlet.run_arm(
            "hardened", seed=1, duration=4.0, loss=0.0, with_faults=False
        )
    )
    assert arm.booted
    assert arm.mm1_violations == 0
    assert arm.monotonicity_violations == 0
    assert arm.rtt_count > 0
    assert arm.xi_live < arm.xi_declared
    assert live_gauntlet.evaluate([arm]) == []
