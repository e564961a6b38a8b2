#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mesh_sync --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the workload is repeated, each repetition a complete
set-up + run + output check on the same seed, until ``--seconds`` have
been measured (at least three repetitions); the end-to-end metrics are
medians over the repetitions.  On the interpreter-bound workloads
their times are scaled to a reference host speed, measured by a fixed
task after each repetition (see ``reference.py``); the raw wall figures
are printed beside them as diagnostics.  With ``--trace 1`` it runs an
untraced,
a traced and another untraced repetition and reports the per-layer
metrics of the traced one, with the tracing overhead.

Every metric is printed by name and unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when an output check fails (including
counts that differ between repetitions of one seed on a simulated
workload) and 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from reference import REFERENCE_S, reference_s

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("mesh_sync", "guarded_service", "scale_stratum", "live_query")
MIN_REPS = 3

#: End-to-end metrics: (name, unit), reported with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("ops_per_s", "1/s"),
    ("server_error_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: (name, unit), reported by the traced run.
PER_LAYER = (
    ("simulation.events", "count"),
    ("simulation.self_s", "s"),
    ("network.sends", "count"),
    ("network.delivered", "count"),
    ("network.dropped", "count"),
    ("network.self_s", "s"),
    ("service.server_self_s", "s"),
    ("service.rounds", "count"),
    ("service.polls_sent", "count"),
    ("service.replies_handled", "count"),
    ("service.poll_reply_ratio", "ratio"),
    ("service.client_self_s", "s"),
    ("service.queries", "count"),
    ("service.queries_failed", "count"),
    ("service.mm1_violations", "count"),
    ("service.hardening_retries", "count"),
    ("service.hardening_quarantines", "count"),
    ("core.calls", "count"),
    ("core.self_s", "s"),
    ("security.signs", "count"),
    ("security.verifies", "count"),
    ("security.rejects", "count"),
    ("security.self_s", "s"),
    ("telemetry.self_s", "s"),
    ("kernel.topology_s", "s"),
    ("kernel.specs_s", "s"),
    ("kernel.build_s", "s"),
    ("kernel.cycles", "count"),
    ("kernel.cycles_requested", "count"),
    ("kernel.cycle_s_p50", "s"),
    ("kernel.events", "count"),
    ("kernel.step_self_s", "s"),
    ("experiments.analysis_s", "s"),
    ("experiments.census_rows", "count"),
    ("runtime.wire_self_s", "s"),
    ("runtime.transport_self_s", "s"),
    ("runtime.engine_self_s", "s"),
    ("runtime.datagrams_sent", "count"),
    ("runtime.datagrams_received", "count"),
    ("runtime.decode_errors", "count"),
    ("runtime.timer_lateness_p50_ms", "ms"),
    ("runtime.sync_rounds", "count"),
    ("runtime.mm1_violations", "count"),
    ("trace.run_phase_s", "s"),
    ("trace.attributed_s", "s"),
    ("trace.tracer_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.bench_self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans-out",
        help="traced run only: write the recorded spans here as JSONL",
    )
    return parser.parse_args(argv)


def _print_metric(name: str, value, unit: str) -> None:
    print(f"  {name:<34} {value:>16.6g} {unit}")


def _fixed_counts(workload: str, reps) -> Tuple[str, bool]:
    """Whether every repetition of one seed did exactly the same work."""
    from workloads import SIMULATED

    if workload not in SIMULATED:
        return "counts vary on the live plane (not gated)", True
    first = reps[0].counts
    diffs = [
        (k, rep.counts) for k, rep in enumerate(reps[1:], 1) if rep.counts != first
    ]
    if diffs:
        return f"repetition {diffs[0][0]} counts {diffs[0][1]} != {first}", False
    return "identical in every repetition", True


def _report(
    workload: str, reps, metrics: Dict[str, float], units, diagnostics, checks
) -> int:
    ok = all(checks.values())
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    print(f"{workload}: {len(reps)} repetition(s)")
    print(" metrics:")
    for name, unit in units:
        _print_metric(name, metrics[name], unit)
    print(" diagnostics:")
    for name, (value, unit) in diagnostics.items():
        _print_metric(name, value, unit)
    _print_metric("failed_frac", failed / max(1, attempted), "ratio")
    print(" counts (first repetition):")
    for name, value in reps[0].counts.items():
        print(f"  {name:<34} {value:>16}")
    for name, value in reps[0].digests.items():
        print(f"  digest.{name:<27} {value:>16}")
    print(" checks:")
    for name, passed in checks.items():
        print(f"  {name:<50} {'ok' if passed else 'FAILED'}")
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units
                },
            }
        )
    )
    return 0 if ok else 1


def _checks(workload: str, reps) -> Dict[str, bool]:
    checks: Dict[str, bool] = {}
    for rep in reps:
        for name, passed in rep.checks.items():
            checks[name] = checks.get(name, True) and passed
    note, same = _fixed_counts(workload, reps)
    print(f"  determinism: {note}")
    checks["counts_repeat_exactly"] = same
    return checks


def _median(values) -> float:
    return statistics.median(list(values))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repetition(run, seed: int):
    """One repetition, started from a collected heap so that garbage left
    by the previous one is not collected inside its timing."""
    gc.collect()
    return run(seed)


def _host_references(covering: float) -> List[float]:
    """Reference-task times adding up to at least a tenth of ``covering``
    seconds (and at least two): one sample is too short to separate the
    host's speed from its jitter."""
    gc.collect()
    samples = [reference_s(), reference_s()]
    while sum(samples) < 0.1 * covering:
        samples.append(reference_s())
    return samples


def run_untraced(workload: str, seed: int, seconds: float) -> int:
    from workloads import INTERPRETER_BOUND, WORKLOADS

    scaled = workload in INTERPRETER_BOUND
    reps: List = []
    references: List[float] = []
    peak_rss_mb = 0.0
    began = time.perf_counter()
    if scaled:
        reference_s()  # warm-up: first-call costs are not host speed
    while len(reps) < MIN_REPS or (
        time.perf_counter() - began + _median(r.total_s for r in reps) <= seconds
    ):
        rep = _repetition(WORKLOADS[workload], seed)
        if scaled:
            references += _host_references(rep.total_s)
        reps.append(rep)
        if len(reps) == 1:
            # Later repetitions reuse freed memory unevenly, so the peak
            # after one repetition is the figure that does not depend on
            # how many repetitions fit in the window.
            peak_rss_mb = _peak_rss_mb()
        print(
            f"  repetition {len(reps)}: setup {rep.setup_s:.4f} s, "
            f"run {rep.run_s:.3f} s, total {rep.total_s:.3f} s, "
            f"cpu {rep.cpu_s:.3f} s, {rep.ops / rep.run_s:.1f} ops/s",
            flush=True,
        )
    # Scale factor to the reference host: below 1 when this host is slow.
    speed = REFERENCE_S / _median(references) if scaled else 1.0
    rates = [rep.ops / rep.run_s for rep in reps]
    metrics = {
        "setup_s": _median(rep.setup_s for rep in reps) * speed,
        "total_s": _median(rep.total_s for rep in reps) * speed,
        "ops_per_s": _median(rates) / speed,
        "server_error_ms": _median(rep.values["server_error_ms"] for rep in reps),
        "peak_rss_mb": peak_rss_mb,
    }
    rate_name = "queries_per_s" if workload == "live_query" else "sim_events_per_s"
    diagnostics = {rate_name: (metrics["ops_per_s"], "1/s")}
    if scaled:
        diagnostics.update(
            host_speed=(speed, "ratio"),
            reference_samples=(len(references), "count"),
            **{f"wall_{rate_name}": (_median(rates), "1/s")},
            wall_setup_s=(_median(rep.setup_s for rep in reps), "s"),
            wall_total_s=(_median(rep.total_s for rep in reps), "s"),
        )
    diagnostics["wall_run_s"] = (_median(rep.run_s for rep in reps), "s")
    diagnostics["cpu_s"] = (_median(rep.cpu_s for rep in reps), "s")
    for name in sorted(reps[0].values):
        if name in metrics:
            continue
        unit = "count" if name.endswith("samples") else (
            "ms" if name.endswith("_ms") else "ratio"
        )
        diagnostics[name] = (_median(rep.values[name] for rep in reps), unit)
    checks = _checks(workload, reps)
    return _report(workload, reps, metrics, END_TO_END, diagnostics, checks)


def _layer_metrics(workload: str, rep, tracer, overhead: float) -> Dict[str, float]:
    lo, hi = rep.window
    in_window = [s for s in tracer.spans if lo <= s.start and s.end <= hi]
    self_s = tracer.self_times(in_window)
    counts, traced = rep.counts, tracer.counts
    scalar = workload in ("mesh_sync", "guarded_service")
    live = workload == "live_query"
    polls = traced["service.polls_sent"]
    replies = counts.get("replies_handled", 0)
    tracer_s = self_s.pop("tracer") + tracer.root_cost()
    attributed = sum(self_s.values())
    return {
        "simulation.events": counts["events"] if scalar else 0,
        "simulation.self_s": self_s.get("simulation", 0.0),
        "network.sends": traced["network.sends"],
        "network.delivered": counts.get("messages_delivered", 0),
        "network.dropped": counts.get("messages_dropped", 0),
        "network.self_s": self_s.get("network", 0.0),
        "service.server_self_s": self_s.get("service.server", 0.0),
        "service.rounds": counts.get("rounds", counts.get("sync_rounds", 0)),
        "service.polls_sent": polls,
        "service.replies_handled": replies,
        "service.poll_reply_ratio": replies / polls if polls else 0.0,
        "service.client_self_s": self_s.get("service.client", 0.0),
        "service.queries": counts.get("queries", 0),
        "service.queries_failed": counts.get("queries_failed", 0),
        "service.mm1_violations": counts["mm1_violations"] if scalar else 0,
        "service.hardening_retries": counts.get("hardening_retries", 0),
        "service.hardening_quarantines": counts.get("hardening_quarantines", 0),
        "core.calls": traced["core.calls"],
        "core.self_s": self_s.get("core", 0.0),
        "security.signs": traced["security.signs"],
        "security.verifies": traced["security.verifies"],
        "security.rejects": traced["security.rejects"],
        "security.self_s": self_s.get("security", 0.0),
        "telemetry.self_s": self_s.get("telemetry", 0.0),
        "kernel.topology_s": rep.phases.get("kernel.topology_s", 0.0),
        "kernel.specs_s": rep.phases.get("kernel.specs_s", 0.0),
        "kernel.build_s": rep.phases.get("kernel.build_s", 0.0),
        "kernel.cycles": counts.get("cycles", 0),
        "kernel.cycles_requested": counts.get("cycles_requested", 0),
        "kernel.cycle_s_p50": (
            _median(rep.run_steps) if workload == "scale_stratum" else 0.0
        ),
        "kernel.events": counts.get("kernel_events", 0),
        "kernel.step_self_s": self_s.get("kernel", 0.0),
        "experiments.analysis_s": rep.phases.get("experiments.analysis_s", 0.0),
        "experiments.census_rows": counts.get("census_rows", 0),
        "runtime.wire_self_s": self_s.get("runtime.wire", 0.0),
        "runtime.transport_self_s": self_s.get("runtime.transport", 0.0),
        "runtime.engine_self_s": self_s.get("runtime.engine", 0.0),
        "runtime.datagrams_sent": traced["runtime.datagrams_sent"],
        "runtime.datagrams_received": traced["runtime.datagrams_received"],
        "runtime.decode_errors": counts.get("decode_errors", 0),
        "runtime.timer_lateness_p50_ms": (
            tracer.timer_lateness_p50_ms() if live else 0.0
        ),
        "runtime.sync_rounds": counts.get("sync_rounds", 0),
        "runtime.mm1_violations": counts["mm1_violations"] if live else 0,
        "trace.run_phase_s": rep.run_s,
        "trace.attributed_s": attributed,
        "trace.tracer_s": tracer_s,
        "trace.unattributed_s": rep.run_s - attributed - tracer_s,
        "trace.bench_self_s": self_s.get("bench", 0.0),
        "trace.overhead_s": overhead,
        "trace.spans": len(tracer.spans),
    }


def run_traced(workload: str, seed: int, spans_out) -> int:
    from layers import LayerTracer
    from workloads import WORKLOADS

    run = WORKLOADS[workload]
    before = _repetition(run, seed)
    tracer = LayerTracer()
    gc.collect()
    with tracer:
        traced = run(seed)
    after = _repetition(run, seed)
    overhead = traced.total_s - (before.total_s + after.total_s) / 2.0
    metrics = _layer_metrics(workload, traced, tracer, overhead)
    if spans_out:
        count = tracer.spans.write_jsonl(spans_out)
        print(f"  wrote {count} spans to {spans_out}")
    diagnostics = {
        "untraced_total_s": ((before.total_s + after.total_s) / 2.0, "s"),
        "traced_total_s": (traced.total_s, "s"),
        "untraced_ops": ((before.ops + after.ops) / 2.0, "count"),
        "traced_ops": (traced.ops, "count"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    checks = _checks(workload, [before, traced, after])
    return _report(workload, [before, traced, after], metrics, PER_LAYER, diagnostics, checks)


def run_all(args) -> int:
    """Each workload untraced, then traced, each in its own process."""
    summary = []
    status = 0
    for workload in NAMES:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            ok = done.returncode == 0 and result is not None and result["correct"]
            status = status or (0 if ok else 1)
            summary.append((workload, trace, ok, result))
    print("\nsummary:")
    for workload, trace, ok, result in summary:
        label = "traced" if trace else "untraced"
        print(f" {workload:<16} {label:<9} {'ok' if ok else 'FAILED'}")
        if result is not None and not trace:
            for name, unit in END_TO_END:
                _print_metric(name, result["metrics"][name]["value"], unit)
        elif result is not None:
            _print_metric(
                "trace.overhead_s", result["metrics"]["trace.overhead_s"]["value"], "s"
            )
    return status


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        return run_traced(args.workload, args.seed, args.spans_out)
    return run_untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
