"""Server hardening: surviving a hostile network and lying neighbours.

The paper's servers trust each other completely: every ``⟨C_j, E_j⟩``
reply reaches the synchronization policy, every lost poll is simply waited
out, and a neighbour that keeps feeding garbage keeps being polled
forever.  That is fine for proving theorems and fatal in production.
:class:`HardenedTimeServer` layers four defences on top of the base
:class:`~repro.service.server.TimeServer` without changing the algorithms
themselves:

* **Reply sanity validation** — NaN/infinite values, negative or
  absurdly large error bounds, and replies whose claimed clock value is
  implausibly far from anything the local interval plus the measured
  round trip could explain are rejected *before* they reach the policy
  (hook: :meth:`~repro.service.server.TimeServer._validate_reply`).
* **Retry with exponential backoff + jitter** — lost poll requests and
  recovery fetches are retransmitted within the open round instead of
  being waited out, so a 30% lossy link degrades accuracy smoothly
  instead of dropping whole rounds.
* **Adaptive round timeouts** — an EWMA of observed local round-trip
  times (plus a deviation term, TCP-RTO style) shrinks the round timeout
  to what the network actually needs, bounded above by the configured
  static timeout.
* **Neighbour health scores with quarantine** — every invalid reply,
  detected inconsistency, or exhausted retry decays a per-neighbour
  score; a neighbour falling below threshold is quarantined (excluded
  from polling and from arbiter choice) for a cooling period, then probed
  back in on probation.  A starvation guard never lets quarantine push
  the active peer count below ``min_peers``.

All knobs live in :class:`HardeningConfig`; the defaults are deliberately
conservative so that on a healthy network a hardened server behaves almost
exactly like a plain one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..telemetry.registry import CounterBackedStats, CounterField
from .messages import RequestKind, TimeReply, TimeRequest
from .server import TimeServer, _PollRound


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for in-round retransmissions.

    Attributes:
        max_attempts: Total transmissions per destination per round
            (1 = no retries).
        base: Delay before the first retry, in seconds.
        factor: Multiplier applied to the delay per further attempt.
        cap: Upper bound on any single backoff delay.
        jitter: Fractional uniform jitter: the delay is scaled by a factor
            drawn from ``[1 - jitter, 1 + jitter]``.
    """

    max_attempts: int = 3
    base: float = 0.15
    factor: float = 2.0
    cap: float = 5.0
    jitter: float = 0.25

    def delay(self, attempt: int, rng: Optional[np.random.Generator]) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(self.base * self.factor ** (attempt - 1), self.cap)
        if rng is None or self.jitter <= 0.0:
            return raw
        scale = 1.0 + self.jitter * (2.0 * float(rng.uniform()) - 1.0)
        return max(1e-6, raw * scale)


@dataclass(frozen=True)
class QuarantinePolicy:
    """When to bench a misbehaving neighbour and for how long.

    Attributes:
        threshold: Health score below which a neighbour is quarantined.
        cooldown: Seconds a quarantined neighbour sits out before being
            probed again.
        probation_score: Score assigned when a neighbour re-enters after
            cooldown (one more strike re-quarantines it quickly).
        min_peers: Starvation guard — quarantine never reduces the number
            of actively polled neighbours below this.
        invalid_penalty: Multiplicative score decay for an invalid reply.
        inconsistent_penalty: Decay for a detected inconsistency.
        timeout_penalty: Decay for a round ending with no reply (after all
            retries) — mild, because honest loss does this too.
        reward: Pull toward 1.0 per good reply: ``s ← s(1-r) + r``.
    """

    threshold: float = 0.25
    cooldown: float = 120.0
    probation_score: float = 0.5
    min_peers: int = 2
    invalid_penalty: float = 0.5
    inconsistent_penalty: float = 0.6
    timeout_penalty: float = 0.9
    reward: float = 0.2


@dataclass(frozen=True)
class HardeningConfig:
    """All hardening knobs in one declarative bundle.

    Attributes:
        validate: Enable reply sanity validation.
        max_error: Largest believable ``E_j`` in seconds; replies claiming
            more are rejected (an error bound wider than an hour means the
            neighbour effectively doesn't know the time).
        plausibility_slack: Extra margin, in seconds, allowed between the
            local and remote clock readings beyond ``E_i + E_j`` plus the
            measured round trip before a reply is called implausible.
        error_physics: Enforce the rule MM-1 growth clamp (see
            :meth:`~repro.service.server.TimeServer.
            _error_physics_rejection`): replies whose claimed error grew,
            but slower than ``δ_j`` mandates since the neighbour's last
            observed report, are rejected after two consecutive strikes.
        retry: Retransmission policy for polls and recovery fetches.
        adaptive_timeout: Derive round timeouts from observed RTTs.
        rtt_alpha: EWMA gain for the RTT mean.
        rtt_dev_alpha: EWMA gain for the RTT mean deviation.
        timeout_multiplier: Round timeout = ``mult·ewma + 4·dev`` (clamped
            to ``[min_timeout, static timeout]``).
        min_timeout: Floor for the adaptive timeout.
        quarantine: Health/quarantine policy, or None to disable.
    """

    validate: bool = True
    max_error: float = 3600.0
    plausibility_slack: float = 0.5
    error_physics: bool = True
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    adaptive_timeout: bool = True
    rtt_alpha: float = 0.125
    rtt_dev_alpha: float = 0.25
    timeout_multiplier: float = 1.5
    min_timeout: float = 0.05
    quarantine: Optional[QuarantinePolicy] = field(
        default_factory=QuarantinePolicy
    )


@dataclass
class NeighbourHealth:
    """Mutable health record for one neighbour.

    Attributes:
        score: Exponentially smoothed reliability in ``(0, 1]``.
        quarantined_until: Real time at which quarantine ends, or None.
        good: Valid, consistent replies seen.
        invalid: Replies rejected by validation.
        inconsistent: Inconsistency detections attributed to it.
        timeouts: Rounds it failed to answer at all.
        quarantines: Times it has been quarantined.
    """

    score: float = 1.0
    quarantined_until: Optional[float] = None
    good: int = 0
    invalid: int = 0
    inconsistent: int = 0
    timeouts: int = 0
    quarantines: int = 0

    def is_quarantined(self, now: float) -> bool:
        """Whether the neighbour is benched at real time ``now``."""
        return self.quarantined_until is not None and now < self.quarantined_until

    def release_if_due(self, now: float, policy: QuarantinePolicy) -> None:
        """End an expired quarantine, putting the neighbour on probation."""
        if self.quarantined_until is not None and now >= self.quarantined_until:
            self.quarantined_until = None
            self.score = policy.probation_score

    def _decay(self, penalty: float, now: float, policy: QuarantinePolicy) -> bool:
        self.score *= penalty
        if self.score < policy.threshold and not self.is_quarantined(now):
            self.quarantined_until = now + policy.cooldown
            self.quarantines += 1
            return True
        return False

    def record_good(self, policy: QuarantinePolicy) -> None:
        """A valid, consistent reply arrived."""
        self.good += 1
        self.score = self.score * (1.0 - policy.reward) + policy.reward

    def record_invalid(self, now: float, policy: QuarantinePolicy) -> bool:
        """An invalid reply arrived; returns True if this quarantined it."""
        self.invalid += 1
        return self._decay(policy.invalid_penalty, now, policy)

    def record_inconsistent(self, now: float, policy: QuarantinePolicy) -> bool:
        """An inconsistency was detected; True if this quarantined it."""
        self.inconsistent += 1
        return self._decay(policy.inconsistent_penalty, now, policy)

    def record_timeout(self, now: float, policy: QuarantinePolicy) -> bool:
        """The neighbour never answered a round; True if quarantined."""
        self.timeouts += 1
        return self._decay(policy.timeout_penalty, now, policy)


def reply_sanity_rejection(
    reply: TimeReply,
    *,
    local_value: float,
    local_error: float,
    delta: float,
    xi: float,
    max_error: float,
    plausibility_slack: float,
) -> Optional[str]:
    """The shared reply sanity checks (hardened and Byzantine servers).

    Returns None to accept or a short reason string.  Pure function of
    the reply and the local view, so any server class can reuse it.
    """
    if not math.isfinite(reply.clock_value):
        return "non-finite clock value"
    if not math.isfinite(reply.error):
        return "non-finite error"
    if reply.error < 0.0:
        return "negative error"
    if reply.error > max_error:
        return "implausibly large error"
    # Plausibility: the remote reading must be explainable by the two
    # error bounds plus the (inflated) round trip.  A liar that
    # underreports its error to look attractive fails exactly here.
    slack = (
        local_error
        + reply.error
        + (1.0 + delta) * xi
        + plausibility_slack
    )
    if abs(reply.clock_value - local_value) > slack:
        return "implausible clock value"
    return None


def quarantine_poll_filter(
    neighbours: Sequence[str],
    health_of: Callable[[str], "NeighbourHealth"],
    now: float,
    policy: QuarantinePolicy,
) -> tuple[List[str], List[str]]:
    """Shared poll-target filtering with the starvation guard.

    Releases due quarantines, drops benched neighbours, and re-admits
    the healthiest benched ones when fewer than ``min_peers`` remain.

    Returns:
        ``(active, readmitted)`` — the names to poll, and the subset of
        them the starvation guard forced back in.
    """
    for name in neighbours:
        health_of(name).release_if_due(now, policy)
    active = [
        name for name in neighbours if not health_of(name).is_quarantined(now)
    ]
    floor = min(policy.min_peers, len(neighbours))
    readmitted: List[str] = []
    if len(active) < floor:
        benched = sorted(
            (name for name in neighbours if name not in active),
            key=lambda name: (-health_of(name).score, name),
        )
        readmitted = benched[: floor - len(active)]
        active = sorted(active + readmitted)
    return active, readmitted


class HardeningStats(CounterBackedStats):
    """Counters the hardened server adds on top of ``ServerStats``.

    Registry-backed (see :class:`~repro.telemetry.registry.
    CounterBackedStats`): the attributes still read and ``+=`` like the
    plain integers they once were, but the values live in counter
    families (``repro_hardening_*_total``) and appear in the service-wide
    telemetry export when the server is built with telemetry enabled.
    """

    prefix = "repro_hardening_"

    retries_sent = CounterField("Poll retransmissions sent")
    recovery_retries = CounterField("Recovery request retransmissions sent")
    quarantines = CounterField("Neighbour quarantines imposed")
    # Quarantined peers re-admitted by the starvation guard.
    starvation_overrides = CounterField("Quarantined peers re-admitted")


class HardenedTimeServer(TimeServer):
    """A :class:`TimeServer` with the production armour described above.

    Args (beyond :class:`TimeServer`'s):
        hardening: The knob bundle; defaults to :class:`HardeningConfig()`.
        hardening_rng: Random stream for retry jitter.  None disables
            jitter (retries stay deterministic).
    """

    def __init__(
        self,
        *args,
        hardening: Optional[HardeningConfig] = None,
        hardening_rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.hardening = hardening if hardening is not None else HardeningConfig()
        self._hrng = hardening_rng
        self.health: Dict[str, NeighbourHealth] = {}
        self.hardening_stats = HardeningStats(self.telemetry.stats_registry())
        self._rtt_ewma: Optional[float] = None
        self._rtt_dev = 0.0
        self._recovery_attempts = 0

    # ------------------------------------------------------------- health

    def _health(self, name: str) -> NeighbourHealth:
        if name not in self.health:
            self.health[name] = NeighbourHealth()
        return self.health[name]

    def quarantined_peers(self) -> List[str]:
        """Neighbours currently benched."""
        return sorted(
            name
            for name, record in self.health.items()
            if record.is_quarantined(self.now)
        )

    def active_peers(self) -> List[str]:
        """The neighbours the next round would poll (post-quarantine)."""
        return self._poll_targets()

    def _note_quarantine(self, name: str) -> None:
        self.hardening_stats.quarantines += 1
        self._trace("quarantine", server=name)

    # ------------------------------------------------------ poll targeting

    def _poll_targets(self) -> list[str]:
        neighbours = super()._poll_targets()
        quarantine = self.hardening.quarantine
        if quarantine is None:
            return neighbours
        active, readmitted = quarantine_poll_filter(
            neighbours, self._health, self.now, quarantine
        )
        self.hardening_stats.starvation_overrides += len(readmitted)
        return active

    # --------------------------------------------------------- validation

    def _validate_reply(self, reply: TimeReply) -> Optional[str]:
        if not self.hardening.validate:
            return None
        reason = self._rejection_reason(reply)
        if reason is None:
            return None
        quarantine = self.hardening.quarantine
        if quarantine is not None:
            if self._health(reply.server).record_invalid(self.now, quarantine):
                self._note_quarantine(reply.server)
        return reason

    def _rejection_reason(self, reply: TimeReply) -> Optional[str]:
        value, error = self.report()
        reason = reply_sanity_rejection(
            reply,
            local_value=value,
            local_error=error,
            delta=self.delta,
            xi=self.network.xi,
            max_error=self.hardening.max_error,
            plausibility_slack=self.hardening.plausibility_slack,
        )
        if reason is not None:
            return reason
        if self.hardening.error_physics:
            return self._error_physics_rejection(reply)
        return None

    # ------------------------------------------------------------ retries

    def _on_round_started(self, round_: _PollRound) -> None:
        retry = self.hardening.retry
        if retry.max_attempts > 1:
            round_.timers.append(
                self.call_after(
                    retry.delay(1, self._hrng),
                    lambda: self._retry_round(round_, attempt=2),
                )
            )

    def _pollable_unsent(self, round_: _PollRound) -> List[str]:
        """Unsent destinations a retry could still usefully reach."""
        quarantine = self.hardening.quarantine
        if quarantine is None:
            return sorted(round_.unsent)
        return [
            name
            for name in sorted(round_.unsent)
            if not self._health(name).is_quarantined(self.now)
        ]

    def _may_revive(self, round_: _PollRound) -> bool:
        if self.hardening.retry.max_attempts <= 1:
            return False
        # Reference-loss edge case: when every unsent destination is
        # benched (or the set is empty), no retry can produce a source —
        # holding the round open for the full timeout would just delay
        # the "no sources" verdict the round close reports upstream.
        return bool(self._pollable_unsent(round_))

    def _retry_round(self, round_: _PollRound, attempt: int) -> None:
        if round_.closed or self._departed:
            return
        if not round_.outstanding and not round_.unsent:
            return
        retry = self.hardening.retry
        quarantine = self.hardening.quarantine
        for destination in sorted(round_.outstanding | round_.unsent):
            revived = destination in round_.unsent
            if (
                revived
                and quarantine is not None
                and self._health(destination).is_quarantined(self.now)
            ):
                continue  # a benched peer's request never left; don't revive it
            self.hardening_stats.retries_sent += 1
            if revived:
                # The original request never left; RTT is measured from
                # this (first successful) transmission instead.
                round_.sent_local[destination] = self.clock_value()
            accepted = self.network.send(
                self.name,
                destination,
                self._prepare_request(
                    TimeRequest(
                        request_id=round_.round_id,
                        origin=self.name,
                        destination=destination,
                        kind=RequestKind.POLL,
                        # A retransmission re-asks the same question: it
                        # reuses the round's recorded nonce so whichever
                        # copy answers first is accepted, and the other is
                        # a duplicate on an already-consumed slot.
                        nonce=round_.nonces.get(destination, 0),
                    )
                ),
            )
            if revived and accepted:
                round_.unsent.discard(destination)
                round_.outstanding.add(destination)
            elif revived:
                del round_.sent_local[destination]
        if attempt < retry.max_attempts:
            round_.timers.append(
                self.call_after(
                    retry.delay(attempt, self._hrng),
                    lambda: self._retry_round(round_, attempt=attempt + 1),
                )
            )
        elif not round_.outstanding:
            # The schedule is exhausted and nothing is in flight: every
            # transmission was refused at send time, so no reply can ever
            # arrive.  End the round now instead of waiting out the
            # timeout; the close path reports the empty source set.
            self._complete_round(round_)

    # ----------------------------------------------------- adaptive timeout

    def _observe_reply(self, reply: TimeReply, rtt_local: float, local_now: float) -> None:
        super()._observe_reply(reply, rtt_local, local_now)
        cfg = self.hardening
        if self._rtt_ewma is None:
            self._rtt_ewma = rtt_local
            self._rtt_dev = rtt_local / 2.0
        else:
            deviation = abs(rtt_local - self._rtt_ewma)
            self._rtt_dev += cfg.rtt_dev_alpha * (deviation - self._rtt_dev)
            self._rtt_ewma += cfg.rtt_alpha * (rtt_local - self._rtt_ewma)
        if cfg.quarantine is not None:
            self._health(reply.server).record_good(cfg.quarantine)

    def _retry_budget(self) -> float:
        """Worst-case time the retry schedule needs (no jitter)."""
        retry = self.hardening.retry
        return sum(retry.delay(k, None) for k in range(1, retry.max_attempts))

    def _effective_round_timeout(self) -> float:
        # The static timeout bounds the wait for any single transmission's
        # answer; the retry budget then EXTENDS the round so the last
        # retransmission still gets a full answer window — otherwise a
        # fast network (static = 4ξ) would close rounds before the first
        # backoff delay ever fires.
        static = super()._effective_round_timeout()
        cfg = self.hardening
        if not cfg.adaptive_timeout or self._rtt_ewma is None:
            return static + self._retry_budget()
        adaptive = cfg.timeout_multiplier * self._rtt_ewma + 4.0 * self._rtt_dev
        window = min(static, max(cfg.min_timeout, adaptive))
        return window + self._retry_budget()

    # ----------------------------------------------------- health feedback

    def _on_round_closed(self, round_: _PollRound) -> None:
        super()._on_round_closed(round_)
        quarantine = self.hardening.quarantine
        if quarantine is None:
            return
        # Unreachable peers (every send refused) are penalised like silent
        # ones — neither produced a reply this round.
        for name in sorted(round_.outstanding | round_.unsent):
            if self._health(name).record_timeout(self.now, quarantine):
                self._note_quarantine(name)

    def _note_inconsistency(self, conflicting: tuple[str, ...]) -> None:
        quarantine = self.hardening.quarantine
        if quarantine is not None:
            for name in conflicting:
                if name == self.name:
                    continue
                if self._health(name).record_inconsistent(self.now, quarantine):
                    self._note_quarantine(name)
            # Quarantined neighbours are unfit arbiters for the paper's
            # unconditional reset: extend the excluded set.
            conflicting = tuple(
                dict.fromkeys(tuple(conflicting) + tuple(self.quarantined_peers()))
            )
        if self._recovery_inflight is None:
            self._recovery_attempts = 0
        super()._note_inconsistency(conflicting)

    # ---------------------------------------------------- recovery retries

    def _recovery_timeout(self, request_id: int) -> None:
        inflight = self._recovery_inflight
        if inflight is None or inflight[0] != request_id:
            return
        retry = self.hardening.retry
        _request_id, arbiter, _sent_local, recovery_nonce = inflight
        quarantine = self.hardening.quarantine
        if quarantine is not None and self._health(arbiter).is_quarantined(
            self.now
        ):
            # The arbiter was benched after this recovery started (its
            # silence may be what benched it): retrying the same benched
            # server would just extend the outage — abandon instead, and
            # the next inconsistency picks a fresh arbiter.
            super()._recovery_timeout(request_id)
            return
        if self._recovery_attempts + 1 < retry.max_attempts:
            self._recovery_attempts += 1
            self.hardening_stats.recovery_retries += 1
            self.network.send(
                self.name,
                arbiter,
                self._prepare_request(
                    TimeRequest(
                        request_id=request_id,
                        origin=self.name,
                        destination=arbiter,
                        kind=RequestKind.RECOVERY,
                        nonce=recovery_nonce,
                    )
                ),
            )
            self._recovery_timeout_event = self.call_after(
                retry.delay(self._recovery_attempts, self._hrng),
                lambda: self._recovery_timeout(request_id),
            )
            return
        super()._recovery_timeout(request_id)
