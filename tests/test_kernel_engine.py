"""Determinism regressions for the batched/sharded kernel engine.

Three guarantees are pinned here, each as a digest comparison so any drift
in arithmetic, ordering, or RNG consumption fails loudly:

* **exact mode vs the heap engine** — on a clean staggered mesh, the
  round-structured replay produces the *same trace, byte for byte*, the
  same event ledger, the same per-server stats and the same final snapshot
  as :func:`repro.service.builder.build_service`'s discrete-event run;
* **bulk mode is deterministic** — same seed → identical trace and state
  digests across runs; different seed → different state;
* **bulk mode is partition-invariant** — 1 shard, N shards, and N shards
  across worker processes all produce identical digests, on uniform-degree
  meshes and on the stratum hierarchy the scale gauntlet runs, because the
  delay table is keyed by (seed, cycle, edge slot) and the trace merge by
  ``(cycle, phase rank, seq)``, neither of which depends on the partition.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import cli
from repro.core.im import IMPolicy
from repro.core.mm import MMPolicy
from repro.network import ConstantDelay, UniformDelay
from repro.experiments import scale_gauntlet
from repro.network.topology import full_mesh, ring, stratum_hierarchy
from repro.service.builder import ServerSpec, build_service
from repro.kernel import (
    KernelConfig,
    DelayTable,
    build_kernel_service,
    plan_kernel,
    partition_names,
    state_digest,
    trace_digest,
)

pytestmark = pytest.mark.kernel

TAU = 10.0
DELAY = 0.01  # one-way bound; 2·bound = 0.02 < τ/(n+1) for n <= 499


def mesh_specs(n: int) -> list[ServerSpec]:
    return [
        ServerSpec(
            name=f"S{k + 1}",
            delta=1e-5,
            skew=((-1) ** k) * 1e-5 * 0.8 * (k + 1) / n,
            initial_error=0.002 + 0.001 * k,
        )
        for k in range(n)
    ]


def scalar_service(graph, specs, policy, seed):
    return build_service(
        graph,
        specs,
        policy=policy,
        tau=TAU,
        seed=seed,
        lan_delay=UniformDelay(DELAY),
    )


def kernel_service(graph, specs, policy, seed, **kwargs):
    kwargs.setdefault("lan_delay", UniformDelay(DELAY))
    return build_kernel_service(
        graph, specs, policy=policy, tau=TAU, seed=seed, **kwargs
    )


def stratum301():
    return stratum_hierarchy(301)


def default_specs(graph) -> list[ServerSpec]:
    """``mesh_specs`` for S-named meshes; the scale gauntlet's per-stratum
    specs for a stratum hierarchy."""
    if "S1" in graph:
        return mesh_specs(len(graph))
    return scale_gauntlet.build_specs(graph)


def bulk_digests(policy_name, *, graph=None, specs=None, seed=0,
                 horizon=200.0, shards=1, processes=0):
    graph = full_mesh(8) if graph is None else graph
    specs = default_specs(graph) if specs is None else specs
    policy = MMPolicy() if policy_name == "mm" else IMPolicy()
    with kernel_service(
        graph, specs, policy, seed, mode="bulk",
        shards=shards, processes=processes,
    ) as svc:
        svc.run_until(horizon)
        return trace_digest(svc.trace), svc.state_digest(), svc.events_processed


# ------------------------------------------------------- exact vs heap engine


class TestExactVsScalar:
    @pytest.mark.parametrize("policy_name", ["mm", "im"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_trace_and_state_bit_identical(self, policy_name, seed):
        graph = full_mesh(8)
        specs = mesh_specs(8)
        policy = MMPolicy() if policy_name == "mm" else IMPolicy()
        horizon = 300.0

        scalar = scalar_service(graph, specs, policy, seed)
        scalar.run_until(horizon)
        exact = kernel_service(graph, specs, policy, seed, mode="exact")
        exact.run_until(horizon)

        assert trace_digest(exact.trace) == trace_digest(scalar.trace)
        assert len(list(exact.trace)) == len(list(scalar.trace))
        assert exact.events_processed == scalar.engine.events_processed

        scalar_snap = scalar.snapshot()
        exact_snap = exact.snapshot()
        assert exact_snap.time == scalar_snap.time
        for name in sorted(s.name for s in specs):
            assert exact_snap.values[name] == scalar_snap.values[name]
            assert exact_snap.errors[name] == scalar_snap.errors[name]

        for name, kstats in exact.stats.items():
            sstats = scalar.servers[name].stats
            for field in (
                "rounds", "replies_handled", "resets",
                "rejects", "inconsistencies", "requests_answered",
            ):
                assert getattr(kstats, field) == getattr(sstats, field), (
                    f"{name}.{field}"
                )

    def test_exact_rounds_actually_reset(self):
        # Guard against vacuous digest equality: the run must do real work.
        exact = kernel_service(full_mesh(8), mesh_specs(8), MMPolicy(), 0,
                               mode="exact")
        exact.run_until(300.0)
        assert sum(s.resets for s in exact.stats.values()) > 0
        assert exact.events_processed > 0


# ------------------------------------------------------------ bulk determinism


class TestBulkDeterminism:
    @pytest.mark.parametrize("policy_name", ["mm", "im"])
    def test_same_seed_repeats_exactly(self, policy_name):
        first = bulk_digests(policy_name, seed=3)
        second = bulk_digests(policy_name, seed=3)
        assert first == second
        assert first[2] > 0

    def test_different_seed_differs(self):
        assert bulk_digests("mm", seed=0)[1] != bulk_digests("mm", seed=7)[1]

    @pytest.mark.parametrize("policy_name", ["mm", "im"])
    @pytest.mark.parametrize(
        "graph_factory", [lambda: full_mesh(8), lambda: ring(12), stratum301],
        ids=["mesh8", "ring12", "stratum301"],
    )
    def test_shard_count_invariance(self, policy_name, graph_factory):
        baseline = bulk_digests(policy_name, graph=graph_factory())
        for shards in (3, 4, 7):
            sharded = bulk_digests(policy_name, graph=graph_factory(), shards=shards)
            assert sharded == baseline, f"{shards} shards"

    @pytest.mark.parametrize("policy_name", ["mm", "im"])
    def test_multiprocess_matches_in_process(self, policy_name):
        baseline = bulk_digests(policy_name)
        multi = bulk_digests(policy_name, shards=4, processes=2)
        assert multi == baseline
        graph = stratum301()
        baseline = bulk_digests(policy_name, graph=graph)
        multi = bulk_digests(policy_name, graph=graph, shards=3, processes=2)
        assert multi == baseline

    def test_stratum_shards_start_mid_philox_block(self):
        # Guard against vacuous invariance: some shard's first delay slot
        # must fall inside a 4-word Philox block.
        graph = stratum301()
        plan = plan_kernel(KernelConfig(graph, default_specs(graph), MMPolicy(), TAU))
        for shards in (3, 7):
            blocks = partition_names(plan.names, shards)
            firsts = [plan.index[block[0]] for block in blocks]
            assert any(2 * plan.indptr[rank] % 4 for rank in firsts), shards

    @pytest.mark.parametrize("cycle", [0, 2])
    def test_draw_layout_is_philox_at_edge_slot(self, cycle):
        graph = stratum301()
        with kernel_service(
            graph, default_specs(graph), MMPolicy(), 5, mode="bulk", shards=3,
        ) as svc:
            svc.run_until(cycle * TAU)
            plan = svc.plan
            lo, hi = plan.delay_min, plan.delay_bound
            key = DelayTable(5, lo, hi).key
            checked = 0
            for shard in svc._local:
                assert shard.cycle == cycle
                d1, d2 = shard._draw_cycle()
                for i, rank in enumerate(shard._ranks.tolist()):
                    deg = int(plan.indptr[rank + 1] - plan.indptr[rank])
                    slot = 2 * int(plan.indptr[rank])
                    bitgen = np.random.Philox(
                        key=key,
                        counter=np.array([slot // 4, cycle, 0, 0], dtype=np.uint64),
                    )
                    bitgen.random_raw(slot % 4)
                    expected = np.random.Generator(bitgen).uniform(lo, hi, 2 * deg)
                    assert np.array_equal(d1[i, :deg], expected[:deg]), plan.names[rank]
                    assert np.array_equal(d2[i, :deg], expected[deg:]), plan.names[rank]
                    checked += 1
            assert checked == 301

    def test_trace_disabled_keeps_state_digest(self):
        graph = full_mesh(8)
        traced = bulk_digests("mm")
        with kernel_service(
            graph, mesh_specs(8), MMPolicy(), 0,
            mode="bulk", trace_enabled=False,
        ) as svc:
            svc.run_until(200.0)
            assert svc.trace == []
            assert svc.state_digest() == traced[1]
            assert svc.events_processed == traced[2]


# ---------------------------------------------------------------- validation


class TestPlanValidation:
    def test_partition_covers_names_in_order(self):
        names = [f"S{k}" for k in range(10)]
        blocks = partition_names(names, 4)
        assert [n for block in blocks for n in block] == names
        assert all(block for block in blocks)
        assert partition_names(names, 1) == [names]

    def test_rejects_unsupported_specs(self):
        graph = full_mesh(3)
        specs = mesh_specs(3)
        reference = [
            ServerSpec("S1", reference=True, initial_error=0.01),
            *specs[1:],
        ]
        with pytest.raises(ValueError):
            plan_kernel(KernelConfig(graph, reference, MMPolicy(), TAU))
        with pytest.raises(ValueError, match="UniformDelay"):
            plan_kernel(
                KernelConfig(graph, specs, MMPolicy(), TAU,
                             delay=ConstantDelay(DELAY))
            )
        with pytest.raises(ValueError, match="duplicate"):
            plan_kernel(
                KernelConfig(graph, [specs[0], *specs[:2]], MMPolicy(), TAU)
            )
        with pytest.raises(ValueError, match="not in the topology"):
            plan_kernel(
                KernelConfig(
                    graph,
                    [*specs[:2], ServerSpec("S9", delta=1e-5)],
                    MMPolicy(),
                    TAU,
                )
            )

    def test_exact_mode_preconditions(self):
        graph = full_mesh(8)
        specs = mesh_specs(8)
        # Round span 2·bound must fit inside the stagger gap τ/(n+1)...
        with pytest.raises(ValueError, match="non-overlapping"):
            kernel_service(
                graph, specs, MMPolicy(), 0, mode="exact",
                lan_delay=UniformDelay(2.0 * TAU),
            )
        # ...and the round timer must never cut a round short.
        with pytest.raises(ValueError, match="round_timeout"):
            kernel_service(
                graph, specs, MMPolicy(), 0, mode="exact",
                round_timeout=DELAY / 2.0,
            )

    def test_exact_mode_is_single_shard(self):
        with pytest.raises(ValueError, match="single-shard"):
            kernel_service(
                full_mesh(4), mesh_specs(4), MMPolicy(), 0,
                mode="exact", shards=2,
            )
        with pytest.raises(ValueError, match="mode"):
            kernel_service(
                full_mesh(4), mesh_specs(4), MMPolicy(), 0, mode="turbo",
            )

    def test_run_backwards_raises(self):
        with kernel_service(
            full_mesh(4), mesh_specs(4), MMPolicy(), 0, mode="bulk"
        ) as svc:
            svc.run_until(50.0)
            with pytest.raises(ValueError, match="backwards"):
                svc.run_until(20.0)


# ------------------------------------------------------ scale gauntlet window


class TestScaleGauntletWindow:
    """Lemma 1 growth is measured between the midpoint and horizon
    snapshots, over the cycles that actually closed between them."""

    def test_three_cycles_measure_a_closed_window(self):
        # 300 servers: the stagger gap tau/301 exceeds the round span, so
        # cycle 0 closes by the midpoint tau and the window holds 2 cycles.
        outcome = scale_gauntlet.run_scale(300, "MM", 0, cycles=3)
        assert outcome.cycles_done == 3
        assert outcome.growth_ok, outcome.strata

    def test_window_without_a_closed_cycle_is_refused(self, capsys):
        # 5000 servers: the last round of cycle 0 closes after tau, so the
        # midpoint snapshot of a 3-cycle run would be the initial state.
        with pytest.raises(ValueError, match="--cycles 3"):
            scale_gauntlet.run_scale(5000, "MM", 0, cycles=3)
        argv = ["scale-gauntlet", "--sizes", "1000", "5000", "--cycles", "3"]
        assert cli.main(argv) == 2
        assert "--cycles 3" in capsys.readouterr().err
        for cycles in ("0", "1"):
            argv = ["scale-gauntlet", "--sizes", "300", "--cycles", cycles]
            assert cli.main(argv) == 2
        assert "--cycles 1" in capsys.readouterr().err
