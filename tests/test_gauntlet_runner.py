"""The shared gauntlet runner: report envelope, verdicts and exit codes."""

from __future__ import annotations

import dataclasses
import json
import runpy
import sys

import pytest

from repro import cli
from repro.experiments import (
    blackout_gauntlet,
    chaos_soak,
    flash_crowd,
    gauntlet,
    mitm_gauntlet,
)

ENVELOPE = {"experiment", "params", "seeds", "ok", "problems", "replay_ok", "outcomes"}


@pytest.mark.parametrize(
    "command, module",
    [("mitm-gauntlet", mitm_gauntlet), ("blackout-gauntlet", blackout_gauntlet)],
)
def test_cli_report_envelope_matches_direct_runs(command, module, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main([command, "--seeds", "0", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert set(report) == ENVELOPE
    assert report["experiment"] == command
    assert report["seeds"] == [0]
    assert report["ok"] and report["replay_ok"] and report["problems"] == []
    runs = [(cell, arm) for cell in module.CELLS for arm in module.ARMS]
    assert len(report["outcomes"]) == len(runs)
    for outcome, (cell, arm) in zip(report["outcomes"], runs):
        assert (outcome["cell"], outcome["arm"], outcome["seed"]) == (cell.label, arm, 0)
        direct = module.run_gauntlet(cell, arm, 0)
        assert outcome["trace_digest"] == direct.trace_digest


def test_experiment_exits_one_when_the_runner_fails(monkeypatch, capsys):
    monkeypatch.setitem(cli.EXPERIMENTS, "failing", lambda: False)
    assert cli.main(["experiment", "failing"]) == 1
    monkeypatch.setitem(cli.EXPERIMENTS, "passing", lambda: True)
    assert cli.main(["experiment", "passing"]) == 0


def test_failures_become_exit_code_one(capsys):
    failing = dataclasses.replace(
        chaos_soak.GAUNTLET, evaluate=lambda outcomes: ["forced failure"]
    )
    assert gauntlet.main(failing, seeds=1, horizon=300.0, compare=False) == 1
    assert "FAIL: forced failure" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["dynamic-gauntlet", "--horizon", "0"],
        ["live-gauntlet", "--duration", "0"],
        ["scale-gauntlet", "--sizes", "0"],
        ["scale-gauntlet", "--shards", "0"],
        ["chaos", "--servers", "2"],
        ["chaos", "--tau", "0"],
        ["chaos", "--seeds", "0"],
    ],
)
def test_refused_input_exits_two(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.strip()


MAINS = [
    "blackout_gauntlet",
    "chaos_soak",
    "dynamic_gauntlet",
    "figure3_liars",
    "figure4_repair",
    "flash_crowd",
    "mitm_gauntlet",
    "scale_gauntlet",
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("module", MAINS)
def test_module_entry_points_exit_nonzero_on_fail(module, monkeypatch):
    monkeypatch.setattr(gauntlet, "run", lambda g, **kwargs: False)
    monkeypatch.setattr(sys, "argv", [module])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module(f"repro.experiments.{module}", run_name="__main__")
    assert exit_info.value.code == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flash_crowd_entry_point_runs_the_seeds_it_parses(monkeypatch, capsys):
    blank = flash_crowd.ArmResult(
        **{f.name: 0 for f in dataclasses.fields(flash_crowd.ArmResult)}
    )
    ran = []

    def fake_arm(controlled, seed, *, horizon):
        ran.append(seed)
        arm = "controlled" if controlled else "plain"
        return dataclasses.replace(blank, arm=arm, seed=seed, digest="-")

    monkeypatch.setattr(flash_crowd, "run_arm", fake_arm)
    monkeypatch.setattr(sys, "argv", ["flash_crowd", "--seeds", "5", "7"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("repro.experiments.flash_crowd", run_name="__main__")
    assert sorted(set(ran)) == [5, 7]
    assert len(ran) == 4
    assert exit_info.value.code == 1  # the blank arms cannot pass
