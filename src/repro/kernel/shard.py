"""Bulk mode: vectorized per-cycle shards with conservative-lookahead sync.

This is the scale arm of the kernel.  The topology's servers (sorted by
name) are split into contiguous shards; each shard advances one full poll
cycle at a time as numpy array phases over all of its servers, and shards
exchange boundary state at cycle barriers.

**Round semantics (Jacobi).**  Within a cycle, every answer a server gives
is computed from the answering server's *cycle-start* committed state.  The
heap engine interleaves rounds (an answerer that reset milliseconds ago
answers with its new state); bulk mode freezes the answer basis at the
cycle barrier so all ``n`` rounds of a cycle are data-parallel.  The
polling server's own round is still processed faithfully: MM replies apply
in arrival order with each accepted reset visible to later replies of the
same round, IM rounds age and intersect exactly as rule IM-2 prescribes
(via :func:`repro.kernel.batch.im2_round`).  Answers lag by at most one
round — bounded by the same ``(1 + δ)·ξ`` slack rule MM-2 already charges —
so correctness properties are preserved while exactness is mode
``"exact"``'s job (see ``docs/kernel.md``).

**Lookahead safety.**  A cycle-``c`` round polls at ``phase + c·τ`` and
closes by ``phase + c·τ + 2·bound``.  A shard may therefore advance its
cycle ``c`` independently once it holds neighbours' cycle-start state: no
message generated in cycle ``c`` can influence another cycle-``c`` answer
basis, and the barrier exchanges exactly the state the next cycle needs.
This is the classic conservative-lookahead argument with the minimum link
delay ξ as the safe horizon, specialised to the round structure: the
lookahead window is a whole cycle, not just ``ξ``.

**Determinism across shard counts.**  A cycle's delays are one
counter-based table indexed by *edge slot* (:class:`DelayTable`): server
``r`` owns the ``2·deg`` slots from ``2·indptr[r]`` and a shard draws just
its contiguous range, so every delay is a function of (seed, cycle, slot)
alone — never of the partition.  Combined with the Jacobi answer basis and
blockwise trace merging (:func:`repro.kernel.sync.merge_rows`), a 1-shard
and an N-shard run of the same seed produce identical traces and state
digests; the regression suite asserts it.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..service.builder import ServiceSnapshot
from ..service.server import ServerStats
from ..simulation.trace import TraceRecord
from .batch import SELF_SLOT, im2_round
from .engine import KernelConfig, KernelPlan, plan_kernel
from .sync import TaggedRow, merge_rows, state_digest

__all__ = [
    "partition_names",
    "cycle_close_bound",
    "DelayTable",
    "ShardedKernelService",
]

_STAT_FIELDS = (
    "rounds",
    "replies_handled",
    "resets",
    "rejects",
    "inconsistencies",
    "requests_answered",
)


def _block_bounds(n: int, shards: int) -> np.ndarray:
    return np.linspace(0, n, shards + 1).astype(int)


def partition_names(names: Sequence[str], shards: int) -> List[List[str]]:
    """Split sorted server names into ``shards`` contiguous blocks."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    bounds = _block_bounds(len(names), min(shards, len(names)))
    return [list(names[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def cycle_close_bound(
    cycle: int, *, servers: int, tau: float, delay_bound: float
) -> float:
    """Latest possible close of any cycle-``cycle`` round of a bulk run.

    The last server's stagger phase is ``τ·n/(n+1)`` (the builder's
    formula) and a round spans at most ``2·bound``.
    """
    return tau * servers / (servers + 1) + cycle * tau + 2.0 * delay_bound


class DelayTable:
    """Every cycle's link delays of one bulk run, drawn by edge slot.

    Slot ``k`` of cycle ``c`` is word ``k % 4`` of the first block that
    ``Philox(key=key, counter=(k // 4, c, 0, 0))`` generates, as a uniform
    on ``[lo, hi)`` by numpy's own formula: ``u = (x >> 11)·2⁻⁵³``, then
    ``lo + (hi − lo)·u``.  So slots ``[start, stop)`` equal
    ``Generator(Philox(...)).uniform(lo, hi, stop - start)`` after skipping
    ``start % 4`` raw words.
    """

    def __init__(self, seed: int, lo: float, hi: float) -> None:
        self.key = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
        self._lo = lo
        self._span = hi - lo
        # One generator, re-pointed at each draw: building a Philox also
        # gathers OS entropy for a seed the key then overrides.
        self._bitgen = np.random.Philox(key=self.key)
        self._empty = np.zeros(4, dtype=np.uint64)

    def draw(self, cycle: int, start: int, stop: int) -> np.ndarray:
        """Slots ``[start, stop)`` of cycle ``cycle``."""
        first = start - start % 4
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array([start // 4, cycle, 0, 0], dtype=np.uint64),
                "key": self.key,
            },
            "buffer": self._empty,
            "buffer_pos": 4,  # buffer spent: the next word starts a block
            "has_uint32": 0,
            "uinteger": 0,
        }
        raw = self._bitgen.random_raw(stop - first)[start - first :]
        return self._lo + self._span * ((raw >> np.uint64(11)) * 2.0**-53)


@dataclass(frozen=True)
class _ShardLayout:
    """One shard's servers ``[lo, hi)`` by rank, the off-shard neighbours
    it reads (``halo``, ascending ranks) and the local positions of its
    servers with off-shard neighbours (``border``)."""

    lo: int
    hi: int
    halo: np.ndarray
    border: np.ndarray


def _shard_layouts(plan: KernelPlan, shards: int) -> List[_ShardLayout]:
    """Every shard's layout, computed once from the plan's CSR arrays."""
    bounds = _block_bounds(len(plan.names), shards)
    layouts = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        nbrs = plan.indices[plan.indptr[lo] : plan.indptr[hi]]
        rows = np.repeat(np.arange(hi - lo), np.diff(plan.indptr[lo : hi + 1]))
        off = (nbrs < lo) | (nbrs >= hi)
        layouts.append(
            _ShardLayout(lo, hi, np.unique(nbrs[off]), np.unique(rows[off]))
        )
    return layouts


class _BulkShard:
    """One shard's state and per-cycle vectorized round processing."""

    def __init__(self, plan: KernelPlan, layout: _ShardLayout) -> None:
        self.plan = plan
        lo, hi = layout.lo, layout.hi
        m = hi - lo
        self._m = m
        self.local_names = plan.names[lo:hi]
        self._ranks = np.arange(lo, hi)
        self._border_local_idx = layout.border
        # Answers read a combined table: local servers, then the halo.
        self._comb_ranks = np.concatenate([self._ranks, layout.halo])
        indptr = plan.indptr[lo : hi + 1]
        self.deg = np.diff(indptr)
        D = int(self.deg.max()) if m else 0
        self._max_deg = D
        # Neighbour q of row i sits in column q, so the valid slots are the
        # first deg[i] columns — also the real replies in arrival-rank order.
        self._valid = np.arange(D)[None, :] < self.deg[:, None]
        self._invalid = ~self._valid
        nbrs = plan.indices[indptr[0] : indptr[-1]]
        rows = np.repeat(np.arange(m), self.deg)
        inside = (nbrs >= lo) & (nbrs < hi)
        self._nbr_idx = np.zeros((m, D), dtype=np.int64)
        self._nbr_idx[self._valid] = np.where(
            inside, nbrs - lo, m + np.searchsorted(layout.halo, nbrs)
        )
        # Delay-table slots: row i's requests start at 2·indptr[i] and its
        # replies deg[i] later; ``_gather`` lays them out as (m, 2D) rows,
        # padding pointing at a trailing zero.
        self._slots = (2 * int(indptr[0]), 2 * int(indptr[-1]))
        request = np.arange(nbrs.size) + (indptr[:-1] - indptr[0])[rows]
        self._gather = np.full((m, 2 * D), self._slots[1] - self._slots[0])
        self._gather[:, :D][self._valid] = request
        self._gather[:, D:][self._valid] = request + self.deg[rows]
        self._delays = DelayTable(plan.seed, plan.delay_min, plan.delay_bound)
        self._events = int(m + 2 * self.deg.sum())
        # Row indices for gather-by-arrival (``arr[rows, order]``).
        self._row_idx = np.arange(m)[:, None]
        # Per-slot outcome buffers: stats arithmetic runs once per cycle
        # over (D, m) instead of five int ops per slot.
        self._cons_buf = np.zeros((D, m), dtype=bool)
        self._acc_buf = np.zeros((D, m), dtype=bool)
        # Static per-server rates (local view and combined answer-table view).
        self.skew = plan.skews[lo:hi]
        self.delta = plan.deltas[lo:hi]
        self._one_skew = 1.0 + self.skew
        self._one_delta = 1.0 + self.delta
        self._comb_skew = plan.skews[self._comb_ranks]
        self._comb_delta = plan.deltas[self._comb_ranks]
        # Mutable clock/error state (DriftingClock segments + MM-1 terms).
        self.seg_start = np.zeros(m)
        self.seg_value = np.zeros(m)
        self.eps = plan.initial_errors[lo:hi].copy()
        self.r = np.zeros(m)
        self.poll_t = plan.phases[lo:hi].copy()
        self.stats = np.zeros((len(_STAT_FIELDS), m), dtype=np.int64)
        self.cycle = 0

    # ---------------------------------------------------------------- drawing

    def _draw_cycle(self) -> Tuple[np.ndarray, np.ndarray]:
        """This cycle's ``(m, D)`` request and reply delays."""
        delays = np.append(self._delays.draw(self.cycle, *self._slots), 0.0)
        table = delays[self._gather]
        return table[:, : self._max_deg], table[:, self._max_deg :]

    def _arrival_names(self, rows: np.ndarray, order: np.ndarray) -> List[List[str]]:
        """Neighbour names of ``rows`` in arrival order (tracing only)."""
        names = self.plan.names
        ranks = self._comb_ranks[self._nbr_idx]
        return [
            [names[ranks[i, order[i, s]]] for s in range(int(self.deg[i]))]
            for i in rows
        ]

    # -------------------------------------------------------------- answering

    def _answers(
        self, snap: Tuple[np.ndarray, ...], idx: np.ndarray, at: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rule MM-1 ``<C_j, E_j>`` from the cycle-start snapshot table."""
        seg_start, seg_value, eps, r = snap
        value = seg_value[idx] + (at - seg_start[idx]) * (1.0 + self._comb_skew[idx])
        error = eps[idx] + np.maximum(0.0, value - r[idx]) * self._comb_delta[idx]
        return value, error

    def _read_local(self, rows: np.ndarray, at: np.ndarray) -> np.ndarray:
        return self.seg_value[rows] + (at - self.seg_start[rows]) * (
            1.0 + self.skew[rows]
        )

    # ------------------------------------------------------------- round math

    def step_cycle(
        self, halo_state: np.ndarray
    ) -> Tuple[np.ndarray, List[TaggedRow], int]:
        """Advance every local server one poll round.

        Args:
            halo_state: ``(4, n_halo)`` cycle-start state of halo servers
                (seg_start, seg_value, eps, r rows).

        Returns:
            ``(border_state, tagged_rows, events)`` where ``border_state``
            is the post-cycle state of this shard's border servers (see
            :meth:`border_state`) and ``events`` counts one poll plus two
            deliveries per reply, matching the heap engine's ledger.
        """
        plan = self.plan
        D = self._max_deg
        # Concatenation copies even with no halo: rounds mutate the live
        # arrays in place and answers must come from the cycle-start state.
        local = (self.seg_start, self.seg_value, self.eps, self.r)
        snap = tuple(np.concatenate(pair) for pair in zip(local, halo_state))
        d1, d2 = self._draw_cycle()
        ta = self.poll_t[:, None] + d1
        tb = ta + d2
        tb_key = np.where(self._valid, tb, np.inf)
        sent_local = self.seg_value + (self.poll_t - self.seg_start) * (1.0 + self.skew)
        rows_out: List[TaggedRow] = []
        self.stats[0] += 1  # rounds
        self.stats[1] += self.deg  # replies_handled
        self.stats[5] += self.deg  # requests_answered (each neighbour polls once)
        if D:
            order = np.argsort(tb_key, axis=1, kind="stable")
            if plan.flags.kind == "mm":
                self._step_mm(snap, ta, tb_key, order, sent_local, rows_out)
            else:
                self._step_im(snap, ta, tb_key, order, sent_local, rows_out)
        if plan.flags.kind == "im":
            self._step_im_isolated(sent_local, rows_out)
        self.poll_t = self.poll_t + plan.tau  # repeated addition, like PeriodicTask
        self.cycle += 1
        return self.border_state(), rows_out, self._events

    def _step_mm(
        self,
        snap: Tuple[np.ndarray, ...],
        ta: np.ndarray,
        tb_key: np.ndarray,
        order: np.ndarray,
        sent_local: np.ndarray,
        rows_out: List[TaggedRow],
    ) -> None:
        """Rule MM-2 in arrival order, one arrival rank per pass.

        Resets land in-place, so later arrivals of the same round see them —
        the only intra-round sequencing MM needs.  Everything that does not
        depend on mid-round resets (the answers, the arrival ordering) is
        computed for all slots up front; the per-slot pass touches whole
        ``(m,)`` columns with no fancy indexing, which is what keeps the
        per-cycle Python overhead flat in the server count.
        """
        flags = self.plan.flags
        trace = self.plan.trace_enabled
        cycle = self.cycle
        m, D = self._m, self._max_deg
        rows2 = self._row_idx
        ta_o = ta[rows2, order]
        tb_o = tb_key[rows2, order]
        np.copyto(tb_o, self.poll_t[:, None], where=self._invalid)
        idx_o = self._nbr_idx[rows2, order]
        flat_v, flat_e = self._answers(snap, idx_o.reshape(-1), ta_o.reshape(-1))
        vj_o = flat_v.reshape(m, D)
        ej_o = flat_e.reshape(m, D)
        # Snapshot-only quantities are slot-independent; hoist them.  The
        # transit leading edge stays ``(C_j + E_j) + (1+δ)·ξ`` left-assoc.
        vj_hi_o = vj_o + ej_o
        vj_lo_o = vj_o - ej_o
        valid_o = self._valid
        one_skew = self._one_skew
        one_delta = self._one_delta
        inflate = flags.inflate_rtt
        strict = flags.strict_improvement
        names_o = self._arrival_names(range(m), order) if trace else None
        for s in range(D):
            active = valid_o[:, s]
            tb_s = tb_o[:, s]
            vj = vj_o[:, s]
            ej = ej_o[:, s]
            local_now = self.seg_value + (tb_s - self.seg_start) * one_skew
            rtt = np.maximum(0.0, local_now - sent_local)
            state_err = self.eps + np.maximum(0.0, local_now - self.r) * self.delta
            infl = one_delta * rtt
            transit_hi = vj_hi_o[:, s] + infl
            consistent = ((local_now - state_err) <= transit_hi) & (
                vj_lo_o[:, s] <= (local_now + state_err)
            )
            candidate = ej + (infl if inflate else rtt)
            if strict:
                improves = candidate < state_err
            else:
                improves = candidate <= state_err
            cons_active = np.logical_and(active, consistent, out=self._cons_buf[s])
            accepted = np.logical_and(cons_active, improves, out=self._acc_buf[s])
            np.copyto(self.seg_start, tb_s, where=accepted)
            np.copyto(self.seg_value, vj, where=accepted)
            np.copyto(self.r, vj, where=accepted)
            np.copyto(self.eps, candidate, where=accepted)
            if trace:
                for i in np.flatnonzero(active):
                    name = self.local_names[i]
                    dest = names_o[i][s]
                    rank = int(self._ranks[i])
                    t = float(tb_s[i])
                    if not consistent[i]:
                        record = TraceRecord(t, "inconsistent", name, {"conflicting": dest})
                    elif accepted[i]:
                        record = TraceRecord(
                            t,
                            "reset",
                            name,
                            {
                                "from_server": dest,
                                "new_value": float(vj[i]),
                                "new_error": float(candidate[i]),
                                "reset_kind": "sync",
                            },
                        )
                    else:
                        record = TraceRecord(t, "reject", name, {"server": dest})
                    rows_out.append((cycle, rank, s, record))
        acc_sum = self._acc_buf.sum(axis=0)
        cons_sum = self._cons_buf.sum(axis=0)
        self.stats[2] += acc_sum  # resets
        self.stats[3] += cons_sum - acc_sum  # rejects (consistent, no gain)
        self.stats[4] += self.deg - cons_sum  # inconsistencies

    def _step_im(
        self,
        snap: Tuple[np.ndarray, ...],
        ta: np.ndarray,
        tb_key: np.ndarray,
        order: np.ndarray,
        sent_local: np.ndarray,
        rows_out: List[TaggedRow],
    ) -> None:
        """Rule IM-2: collect the round, age to its close, intersect."""
        flags = self.plan.flags
        rp = np.flatnonzero(self.deg > 0)
        if not rp.size:
            return
        deg_rp = self.deg[rp]
        rp_col = rp[:, None]
        order_rp = order[rp]
        ta_o = ta[rp_col, order_rp]
        tb_o = tb_key[rp_col, order_rp]
        idx_o = self._nbr_idx[rp_col, order_rp]
        D = self._max_deg
        valid_o = self._valid[rp]
        tb_o = np.where(valid_o, tb_o, self.poll_t[rp][:, None])  # keep finite
        k_rows = np.arange(rp.size)
        value_j, error_j = self._answers(
            snap, idx_o.reshape(-1), ta_o.reshape(-1)
        )
        value_j = value_j.reshape(rp.size, D)
        error_j = error_j.reshape(rp.size, D)
        local_at = self.seg_value[rp][:, None] + (
            tb_o - self.seg_start[rp][:, None]
        ) * (1.0 + self.skew[rp][:, None])
        rtt = np.maximum(0.0, local_at - sent_local[rp][:, None])
        t_close = tb_o[k_rows, deg_rp - 1]
        local_close = self._read_local(rp, t_close)
        elapsed = np.maximum(0.0, local_close[:, None] - local_at)
        aged_value = value_j + elapsed
        aged_error = error_j + self.delta[rp][:, None] * elapsed
        state_err = self.eps[rp] + np.maximum(
            0.0, local_close - self.r[rp]
        ) * self.delta[rp]
        outcome = im2_round(
            local_close,
            state_err,
            self.delta[rp],
            aged_value,
            aged_error,
            rtt,
            valid_o,
            include_self=flags.include_self,
            widen_both_edges=flags.widen_both_edges,
            reset_to=flags.reset_to,
            allow_point_intersection=flags.allow_point_intersection,
        )
        good = outcome.consistent
        hit = rp[good]
        self.seg_start[hit] = t_close[good]
        self.seg_value[hit] = outcome.new_value[good]
        self.r[hit] = outcome.new_value[good]
        self.eps[hit] = outcome.new_error[good]
        self.stats[2, hit] += 1
        self.stats[4, rp[~good]] += 1
        if self.plan.trace_enabled:
            cycle = self.cycle
            arrival_names = self._arrival_names(rp, order)

            def slot_name(k: int, slot: int) -> str:
                return "self" if slot == SELF_SLOT else arrival_names[k][slot]

            for k, i in enumerate(rp):
                name = self.local_names[i]
                rank = int(self._ranks[i])
                a_name = slot_name(k, int(outcome.a_slot[k]))
                b_name = slot_name(k, int(outcome.b_slot[k]))
                source = a_name if a_name == b_name else f"{a_name}∩{b_name}"
                t = float(t_close[k])
                if good[k]:
                    record = TraceRecord(
                        t,
                        "reset",
                        name,
                        {
                            "from_server": source,
                            "new_value": float(outcome.new_value[k]),
                            "new_error": float(outcome.new_error[k]),
                            "reset_kind": "sync",
                        },
                    )
                else:
                    conflicting = ",".join(
                        n for n in source.split("∩") if n != "self"
                    )
                    record = TraceRecord(
                        t, "inconsistent", name, {"conflicting": conflicting}
                    )
                rows_out.append((cycle, rank, 0, record))

    def _step_im_isolated(
        self, sent_local: np.ndarray, rows_out: List[TaggedRow]
    ) -> None:
        """Degree-0 IM rounds: the self interval is the whole intersection."""
        flags = self.plan.flags
        if not flags.include_self:
            return  # scalar: empty round, no self -> consistent no-op
        iso = np.flatnonzero(self.deg == 0)
        for i in iso:
            t = float(self.poll_t[i])
            local_now = float(sent_local[i])
            state_err = float(
                self.eps[i] + max(0.0, local_now - self.r[i]) * self.delta[i]
            )
            a, b = -state_err, state_err
            consistent = (b >= a) if flags.allow_point_intersection else (b > a)
            name = self.local_names[i]
            rank = int(self._ranks[i])
            if not consistent:
                self.stats[4, i] += 1
                if self.plan.trace_enabled:
                    rows_out.append(
                        (
                            self.cycle,
                            rank,
                            0,
                            TraceRecord(t, "inconsistent", name, {"conflicting": ""}),
                        )
                    )
                continue
            if flags.reset_to == "midpoint":
                offset, new_error = (a + b) / 2.0, (b - a) / 2.0
            else:
                offset, new_error = a, b - a
            new_value = local_now + offset
            self.seg_start[i] = t
            self.seg_value[i] = new_value
            self.r[i] = new_value
            self.eps[i] = new_error
            self.stats[2, i] += 1
            if self.plan.trace_enabled:
                rows_out.append(
                    (
                        self.cycle,
                        rank,
                        0,
                        TraceRecord(
                            t,
                            "reset",
                            name,
                            {
                                "from_server": "self",
                                "new_value": float(new_value),
                                "new_error": float(new_error),
                                "reset_kind": "sync",
                            },
                        ),
                    )
                )

    # ------------------------------------------------------------- reporting

    def border_state(self) -> np.ndarray:
        """Post-cycle ``(4, n_border)`` state of this shard's border servers."""
        idx = self._border_local_idx
        return np.stack(
            [self.seg_start[idx], self.seg_value[idx], self.eps[idx], self.r[idx]]
        )

    def collect(self) -> Dict[str, np.ndarray]:
        return {
            "ranks": self._ranks,
            "seg_start": self.seg_start.copy(),
            "seg_value": self.seg_value.copy(),
            "eps": self.eps.copy(),
            "r": self.r.copy(),
            "stats": self.stats.copy(),
        }


def _shard_worker(conn, plan: KernelPlan, layout: _ShardLayout) -> None:
    """Child-process loop: build the shard, serve step/collect commands."""
    shard = _BulkShard(plan, layout)
    while True:
        msg = conn.recv()
        if msg[0] == "step":
            conn.send(shard.step_cycle(msg[1]))
        elif msg[0] == "collect":
            conn.send(shard.collect())
        elif msg[0] == "close":
            conn.close()
            return


class ShardedKernelService:
    """The bulk-mode service: N shards, cycle barriers, merged reporting.

    With ``processes == 0`` shards advance serially in-process (fastest for
    small N; no pickling); with ``processes > 0`` shards are spread over
    forked worker processes and the barrier exchange rides ``Pipe``s.
    Either way the results are identical — the exchange protocol and the
    delay table do not depend on the execution vehicle.
    """

    def __init__(self, config: KernelConfig, *, shards: int = 1, processes: int = 0) -> None:
        self.plan = plan_kernel(config)
        n = len(self.plan.names)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        layouts = _shard_layouts(self.plan, min(shards, n))
        # Concatenated border table: shard s's border servers occupy a
        # contiguous slice, so the whole table ascends by rank and every
        # halo (a set of other shards' border servers) is a searchsorted.
        borders = [layout.lo + layout.border for layout in layouts]
        concat = np.concatenate(borders) if borders else np.zeros(0, dtype=np.int64)
        stops = np.cumsum([border.size for border in borders]).tolist()
        self._border_slices = [
            slice(stop - border.size, stop) for stop, border in zip(stops, borders)
        ]
        self._halo_src = [np.searchsorted(concat, layout.halo) for layout in layouts]
        self._border_table = np.zeros((4, concat.size))
        self._border_table[2] = self.plan.initial_errors[concat]
        self._now = 0.0
        self._cycles_done = 0
        self._events = 0
        self._rows: List[TaggedRow] = []
        self._trace_cache: Optional[List[TraceRecord]] = None
        self._collected: Optional[Dict[str, np.ndarray]] = None
        self._procs: List = []
        self._conns: List = []
        self._local: List[_BulkShard] = []
        if processes:
            ctx = multiprocessing.get_context("fork")
            for layout in layouts:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child_conn, self.plan, layout),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        else:
            self._local = [_BulkShard(self.plan, layout) for layout in layouts]

    # ---------------------------------------------------------------- control

    def _step_cycle(self) -> None:
        halos = [self._border_table[:, src] for src in self._halo_src]
        if self._conns:
            for conn, halo in zip(self._conns, halos):
                conn.send(("step", halo))
            results = [conn.recv() for conn in self._conns]
        else:
            results = [
                shard.step_cycle(halo) for shard, halo in zip(self._local, halos)
            ]
        for s, (border, rows, events) in enumerate(results):
            self._border_table[:, self._border_slices[s]] = border
            self._rows.extend(rows)
            self._events += events
        self._cycles_done += 1
        self._trace_cache = None
        self._collected = None

    def run_until(self, time: float) -> None:
        """Advance to real time ``time``, whole cycles at a time.

        A cycle is processed once every round in it is guaranteed closed
        (``phase_max + c·τ + 2·bound <= time``) — an analytic, draw- and
        shard-independent criterion, so every execution shape processes the
        same cycle set for a given ``time``.
        """
        if time < self._now:
            raise ValueError(f"cannot run backwards to {time} from {self._now}")
        plan = self.plan
        close_bound = partial(
            cycle_close_bound,
            servers=len(plan.names),
            tau=plan.tau,
            delay_bound=plan.delay_bound,
        )
        while close_bound(self._cycles_done) <= time:
            self._step_cycle()
        self._now = time

    def close(self) -> None:
        """Shut down worker processes (no-op in-process)."""
        for conn in self._conns:
            try:
                conn.send(("close",))
                conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover
                proc.terminate()
        self._conns = []
        self._procs = []

    def __enter__(self) -> "ShardedKernelService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- reporting

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events

    @property
    def cycles_done(self) -> int:
        return self._cycles_done

    def _collect(self) -> Dict[str, np.ndarray]:
        if self._collected is None:
            if self._conns:
                for conn in self._conns:
                    conn.send(("collect",))
                parts = [conn.recv() for conn in self._conns]
            else:
                parts = [shard.collect() for shard in self._local]
            n = len(self.plan.names)
            merged = {
                key: np.zeros(n) for key in ("seg_start", "seg_value", "eps", "r")
            }
            stats = np.zeros((len(_STAT_FIELDS), n), dtype=np.int64)
            for part in parts:
                ranks = part["ranks"]
                for key in ("seg_start", "seg_value", "eps", "r"):
                    merged[key][ranks] = part[key]
                stats[:, ranks] = part["stats"]
            merged["stats"] = stats
            self._collected = merged
        return self._collected

    @property
    def trace(self) -> List[TraceRecord]:
        """The deterministically merged cross-shard trace."""
        if self._trace_cache is None:
            self._trace_cache = merge_rows([self._rows])
        return self._trace_cache

    @property
    def stats(self) -> Dict[str, ServerStats]:
        table = self._collect()["stats"]
        out: Dict[str, ServerStats] = {}
        for i, name in enumerate(self.plan.names):
            out[name] = ServerStats(
                **{field: int(table[f, i]) for f, field in enumerate(_STAT_FIELDS)}
            )
        return out

    def state_digest(self) -> int:
        """CRC32 over the merged post-run state arrays (shard-invariant)."""
        state = self._collect()
        return state_digest(
            self.plan.names,
            state["seg_start"],
            state["seg_value"],
            state["eps"],
            state["r"],
        )

    def snapshot(self) -> ServiceSnapshot:
        state = self._collect()
        t = self._now
        value = state["seg_value"] + (t - state["seg_start"]) * (1.0 + self.plan.skews)
        error = state["eps"] + np.maximum(0.0, value - state["r"]) * self.plan.deltas
        values: Dict[str, float] = {}
        errors: Dict[str, float] = {}
        offsets: Dict[str, float] = {}
        correct: Dict[str, bool] = {}
        for i, name in enumerate(self.plan.names):
            v = float(value[i])
            e = float(error[i])
            values[name] = v
            errors[name] = e
            offsets[name] = v - t
            correct[name] = (v - e) <= t <= (v + e)
        return ServiceSnapshot(
            time=t, values=values, errors=errors, offsets=offsets, correct=correct
        )

    def sample(self, times: Sequence[float]) -> List[ServiceSnapshot]:
        snapshots = []
        for t in times:
            self.run_until(t)
            snapshots.append(self.snapshot())
        return snapshots
