"""Pinned seed-0 trace digests and verdicts of the simulated gauntlets.

Each gauntlet's run body is a deterministic function of its seed, so the
CRC over the full run trace is a behavioural fingerprint: a refactor of
the harness around the runs must leave every value below unchanged.
The values were recorded once and are stable across ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from repro.experiments import (
    blackout_gauntlet,
    chaos_soak,
    dynamic_gauntlet,
    mitm_gauntlet,
)

BLACKOUT = {"mm": 0x24663B9C, "holdover": 0x43996A7E}
MITM = {"plain": 0xAFC16E10, "hardened": 0x23B8ECFD, "authenticated": 0x2C0FFC2A}
DYNAMIC = {"MM": 0x1FA3412E, "IM": 0x3A62D73E, "gradient": 0xEC4FEBBC}
CHAOS = {"MM": 0xDC7E9A10, "IM": 0x5F0DD913}
CHAOS_SCHEDULE = 0x43B0DF42


def test_blackout_short_ref_seed0():
    outcomes = [
        blackout_gauntlet.run_gauntlet(blackout_gauntlet.CELLS[0], arm, 0)
        for arm in blackout_gauntlet.ARMS
    ]
    assert {o.arm: o.trace_digest for o in outcomes} == BLACKOUT
    assert blackout_gauntlet.evaluate(outcomes) == []


def test_mitm_tamper_seed0():
    outcomes = [
        mitm_gauntlet.run_gauntlet(mitm_gauntlet.CELLS[0], arm, 0)
        for arm in mitm_gauntlet.ARMS
    ]
    assert {o.arm: o.trace_digest for o in outcomes} == MITM
    assert mitm_gauntlet.evaluate(outcomes) == []


def test_dynamic_default_cell_seed0():
    outcomes = [
        dynamic_gauntlet.run_gauntlet(arm, 0) for arm in dynamic_gauntlet.ARMS
    ]
    assert {o.arm: o.trace_digest for o in outcomes} == DYNAMIC
    assert dynamic_gauntlet.evaluate(outcomes) == []


def test_chaos_soak_seed0():
    outcomes = [chaos_soak.run_soak(policy, 0) for policy in CHAOS]
    assert {o.policy: o.trace_digest for o in outcomes} == CHAOS
    assert {o.schedule_signature for o in outcomes} == {CHAOS_SCHEDULE}
    assert [o.violations for o in outcomes] == [0, 0]
