"""MITM gauntlet acceptance: the ISSUE's headline criteria, in miniature.

Runs the full cell × arm matrix at one seed and asserts the contract:
the plain arm is poisoned where the theory says it must be, the
authenticated arm never accepts a forged or replayed message and stays
invariant-clean everywhere, the defenses demonstrably fired, and the
whole thing replays bit-identically.
"""

from __future__ import annotations

import pytest

from repro.experiments import gauntlet
from repro.experiments.mitm_gauntlet import (
    ARMS,
    CELLS,
    GAUNTLET,
    GauntletCell,
    evaluate,
    run_gauntlet,
)

pytestmark = pytest.mark.security


@pytest.fixture(scope="module")
def matrix():
    return gauntlet.run_matrix(GAUNTLET, seeds=(0,))


def _pick(matrix, cell, arm):
    (outcome,) = [o for o in matrix if o.cell == cell and o.arm == arm]
    return outcome


class TestAcceptance:
    def test_matrix_passes_evaluation(self, matrix):
        assert evaluate(matrix) == []

    def test_plain_arm_poisoned_by_tamper_and_delay(self, matrix):
        for cell in ("tamper", "delay"):
            outcome = _pick(matrix, cell, "plain")
            assert outcome.violations > 0
            assert outcome.accepted_tainted > 0

    def test_delay_attack_moves_plain_victim_a_full_period(self, matrix):
        # The held-back data is one poll period (10 s) old: the poisoned
        # victim's true offset approaches τ while its claimed error is
        # tiny — the paper's ξ assumption broken as hard as possible.
        assert _pick(matrix, "delay", "plain").peak_true_offset > 5.0

    def test_authenticated_arm_clean_everywhere(self, matrix):
        for cell in CELLS:
            outcome = _pick(matrix, cell.label, "authenticated")
            assert outcome.violations == 0
            assert outcome.accepted_tainted == 0

    def test_defenses_fired_where_expected(self, matrix):
        assert _pick(matrix, "tamper", "authenticated").auth_failures > 0
        assert _pick(matrix, "replay", "authenticated").replay_drops > 0
        for cell in ("delay", "spoof"):
            assert _pick(matrix, cell, "authenticated").delay_detections > 0

    def test_adversary_actually_attacked_every_cell(self, matrix):
        for outcome in matrix:
            attacks = (
                outcome.tampered
                + outcome.replayed
                + outcome.swallowed
                + outcome.spoofed
            )
            assert attacks > 0, f"{outcome.cell}/{outcome.arm}: no attacks"

    def test_quarantine_escalation_in_authenticated_tamper_cell(self, matrix):
        assert _pick(matrix, "tamper", "authenticated").quarantines > 0


class TestDeterminism:
    def test_same_seed_same_digest(self):
        first = run_gauntlet(CELLS[0], "authenticated", seed=3)
        second = run_gauntlet(CELLS[0], "authenticated", seed=3)
        assert first.trace_digest == second.trace_digest
        assert first == second

    def test_distinct_seeds_distinct_digests(self):
        a = run_gauntlet(CELLS[0], "plain", seed=0)
        b = run_gauntlet(CELLS[0], "plain", seed=1)
        assert a.trace_digest != b.trace_digest


class TestValidation:
    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError):
            run_gauntlet(CELLS[0], "ntp", seed=0)

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError):
            run_gauntlet(GauntletCell("weird", "weird"), ARMS[0], seed=0)
