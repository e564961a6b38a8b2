"""Command-line interface.

Main subcommands::

    python -m repro simulate   # build and run a service from flags
    python -m repro figures    # regenerate the paper's figures
    python -m repro experiment # run any experiment module by name
    python -m repro figure1    # instrumented Figure 1 (telemetry export)
    python -m repro top        # live text dashboard over a running sim

``simulate`` is the workhorse: it assembles a topology, a clock population,
and a synchronization policy from flags, runs for the requested simulated
duration, and prints the final service state (optionally exporting the
sampled series to CSV/JSON).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from .analysis.export import snapshots_to_csv, snapshots_to_json
from .analysis.plots import render_intervals, render_table
from .analysis.report import service_report
from .baselines import FirstReplyPolicy, LamportMaxPolicy, MeanPolicy, MedianPolicy
from .byzantine import FaultBudgetConfig, FaultBudgetController
from .core.ft_im import FTIMPolicy
from .core.im import IMPolicy
from .core.mm import MMPolicy
from .core.recovery import ThirdServerRecovery
from .experiments import (
    ablations,
    blackout_gauntlet,
    chaos_soak,
    churn as churn_experiment,
    cold_start,
    correctness,
    delay_asymmetry,
    discipline,
    drift_recovery,
    dynamic_gauntlet,
    failures,
    figure1,
    figure2,
    figure3,
    figure3_liars,
    figure4,
    figure4_repair,
    flash_crowd,
    gauntlet,
    live_gauntlet,
    mitm_gauntlet,
    overhead,
    partition,
    quantization,
    scale_gauntlet,
    tenfold,
    theorem4,
    topology_study,
    theorem8,
    theorem_bounds,
)
from .network.delay import UniformDelay
from .network.topology import full_mesh, line, random_connected, ring, star, two_level_internet
from .recovery import SelfStabilizingRecovery
from .security import SecurityConfig
from .service.builder import ServerSpec, build_service
from .service.churn import ChurnController
from .simulation.rng import RngRegistry
from .telemetry import ServiceTelemetry, render_dashboard, run_top

POLICIES = {
    "mm": MMPolicy,
    "im": IMPolicy,
    "max": LamportMaxPolicy,
    "median": MedianPolicy,
    "mean": MeanPolicy,
    "first": FirstReplyPolicy,
}

#: Every gauntlet, by name: the gauntlet subcommands and ``experiment``
#: both run these through :mod:`repro.experiments.gauntlet`.
GAUNTLETS = {
    g.name: g
    for g in (
        blackout_gauntlet.GAUNTLET,
        chaos_soak.GAUNTLET,
        dynamic_gauntlet.GAUNTLET,
        figure3_liars.GAUNTLET,
        figure4_repair.GAUNTLET,
        flash_crowd.GAUNTLET,
        live_gauntlet.GAUNTLET,
        mitm_gauntlet.GAUNTLET,
        scale_gauntlet.GAUNTLET,
    )
}

EXPERIMENTS = {
    "figure1": figure1.main,
    "figure2": figure2.main,
    "figure3": figure3.main,
    "figure4": figure4.main,
    "theorem4": theorem4.main,
    "theorem8": theorem8.main,
    "theorem-bounds": theorem_bounds.main,
    "tenfold": tenfold.main,
    "recovery": drift_recovery.main,
    "partition": partition.main,
    "quantization": quantization.main,
    "topology": topology_study.main,
    "churn": churn_experiment.main,
    "cold-start": cold_start.main,
    "discipline": discipline.main,
    "failures": failures.main,
    "overhead": overhead.main,
    "correctness": correctness.main,
    "asymmetry": delay_asymmetry.main,
    "ablations": ablations.main,
    **{
        name: functools.partial(gauntlet.run, g)
        for name, g in GAUNTLETS.items()
    },
}


def _build_topology(args: argparse.Namespace):
    if args.topology == "mesh":
        return full_mesh(args.servers)
    if args.topology == "ring":
        return ring(args.servers)
    if args.topology == "line":
        return line(args.servers)
    if args.topology == "star":
        return star(args.servers)
    if args.topology == "internet":
        networks = max(2, args.servers // 4)
        per = max(2, args.servers // networks)
        return two_level_internet(networks, per)
    if args.topology == "random":
        rng = RngRegistry(seed=args.seed).stream("topology")
        return random_connected(args.servers, 0.3, rng)
    raise SystemExit(f"unknown topology {args.topology!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    """The ``simulate`` subcommand."""
    telemetry = (
        ServiceTelemetry(sample_period=args.tau)
        if args.telemetry_out
        else None
    )
    graph = _build_topology(args)
    names = sorted(graph.nodes)
    n = len(names)
    specs = []
    for k, name in enumerate(names):
        if args.reference > 0 and k < args.reference:
            specs.append(ServerSpec(name, reference=True, initial_error=0.001))
            continue
        skew = (
            args.fill * args.delta * (2.0 * k / (n - 1) - 1.0) if n > 1 else 0.0
        )
        specs.append(
            ServerSpec(
                name,
                delta=args.delta,
                skew=skew,
                rate_tracking=args.rate_tracking,
                discipline=args.discipline,
                self_stabilizing=args.self_stabilizing,
                byzantine_tolerant=args.byzantine_tolerant,
                holdover=args.holdover,
            )
        )
    recovery_factory = None
    if args.byzantine_tolerant or args.self_stabilizing:
        recovery_factory = lambda name: SelfStabilizingRecovery()  # noqa: E731
    elif args.recovery:
        recovery_factory = lambda name: ThirdServerRecovery()  # noqa: E731
    policy = None
    policy_factory = None
    if args.byzantine_tolerant:
        # FT-IM is the tolerant policy; each server gets its own adaptive
        # budget controller seeded at --fault-budget.
        budget = max(0, args.fault_budget)
        policy_factory = lambda name: FTIMPolicy(  # noqa: E731
            fault_budget=FaultBudgetController(
                FaultBudgetConfig(initial=budget, minimum=min(1, budget))
            )
        )
    else:
        policy = POLICIES[args.policy]()
    service = build_service(
        graph,
        specs,
        policy=policy,
        policy_factory=policy_factory,
        tau=args.tau,
        seed=args.seed,
        lan_delay=UniformDelay(args.one_way),
        wan_delay=UniformDelay(args.one_way * 5),
        recovery_factory=recovery_factory,
        trace_enabled=True,
        telemetry=telemetry,
        security=SecurityConfig() if args.authenticated else None,
    )
    if args.churn:
        controller = ChurnController(
            service.engine,
            [s for s in service.servers.values() if s.policy is not None],
            service.rng.stream("churn"),
            interval=args.tau * 4,
            mean_downtime=args.tau * 2,
            rejoin_error=1.0,
        )
        controller.start()

    horizon = args.hours * 3600.0
    sample_count = max(2, args.samples)
    step = horizon / (sample_count - 1)
    snapshots = service.sample([step * k for k in range(sample_count)])
    snap = snapshots[-1]

    policy_label = "FT-IM" if args.byzantine_tolerant else args.policy.upper()
    print(
        f"{policy_label} on {args.topology} ({n} servers), "
        f"τ={args.tau:g}s, ξ={2 * args.one_way:g}s, after {args.hours:g} h:"
    )
    rows = [
        [
            name,
            snap.values[name],
            snap.errors[name],
            snap.offsets[name],
            snap.correct[name],
        ]
        for name in names
    ]
    print(
        render_table(
            ["server", "clock", "error E", "true offset", "correct"],
            rows,
            precision=6,
        )
    )
    print(
        f"asynchronism {snap.asynchronism * 1e3:.2f} ms | "
        f"consistent {snap.consistent} | all correct {snap.all_correct}"
    )
    if args.diagram:
        print(render_intervals(snap.intervals(), true_time=snap.time))
    if args.report:
        print()
        print(service_report(service, include_diagram=False))
    if args.export_csv:
        written = snapshots_to_csv(snapshots, args.export_csv)
        print(f"wrote {written} rows to {args.export_csv}")
    if args.export_json:
        written = snapshots_to_json(snapshots, args.export_json)
        print(f"wrote {written} snapshots to {args.export_json}")
    if telemetry is not None:
        paths = telemetry.write(args.telemetry_out)
        print(f"wrote telemetry ({', '.join(sorted(paths))}) to {args.telemetry_out}")
    return 0 if snap.all_correct else 1


def cmd_figures(args: argparse.Namespace) -> int:
    """The ``figures`` subcommand."""
    mains = {
        "1": figure1.main,
        "2": figure2.main,
        "3": figure3.main,
        "4": figure4.main,
    }
    targets = sorted(mains) if args.which == "all" else [args.which]
    for index, which in enumerate(targets):
        if index:
            print("\n" + "=" * 72 + "\n")
        mains[which]()
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """The ``experiment`` subcommand."""
    if args.name == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    runner = EXPERIMENTS.get(args.name)
    if runner is None:
        print(
            f"unknown experiment {args.name!r}; try: "
            + ", ".join(sorted(EXPERIMENTS)),
            file=sys.stderr,
        )
        return 2
    return 1 if runner() is False else 0


def cmd_figure1(args: argparse.Namespace) -> int:
    """The ``figure1`` subcommand: the instrumented Figure 1 run.

    Unlike ``figures 1`` (the faithful, synchronization-free figure),
    this runs Figure 1's clock population under rule IM with the full
    telemetry plane attached, prints the dashboard's final frame, and —
    with ``--telemetry-out`` — exports the Prometheus snapshot, the span
    JSONL, and the summary for offline inspection.
    """
    result, service, telemetry = figure1.run_instrumented(
        tau=args.tau, seed=args.seed, sample_period=args.tau
    )
    print("Figure 1 servers under rule IM — instrumented run")
    for snap, diagram in zip(result.snapshots, result.diagrams):
        print(f"\n  t = {snap.time:.0f} s")
        for line in diagram.splitlines():
            print("   ", line)
    print()
    telemetry.sampler.sample_now()
    print(render_dashboard(service, telemetry))
    if args.telemetry_out:
        paths = telemetry.write(
            args.telemetry_out,
            summary_extra={"experiment": "figure1", "seed": args.seed},
            time=service.engine.now,
        )
        print(
            f"\nwrote telemetry ({', '.join(sorted(paths))}) "
            f"to {args.telemetry_out}"
        )
    print(f"\nAll intervals contain the true time: {result.all_correct}")
    return 0 if result.all_correct else 1


def cmd_top(args: argparse.Namespace) -> int:
    """The ``top`` subcommand: a live text dashboard over a running sim."""
    telemetry = ServiceTelemetry(sample_period=args.refresh)
    graph = _build_topology(args)
    names = sorted(graph.nodes)
    n = len(names)
    specs = [
        ServerSpec(
            name,
            delta=args.delta,
            skew=(
                args.fill * args.delta * (2.0 * k / (n - 1) - 1.0)
                if n > 1
                else 0.0
            ),
        )
        for k, name in enumerate(names)
    ]
    service = build_service(
        graph,
        specs,
        policy=POLICIES[args.policy](),
        tau=args.tau,
        seed=args.seed,
        lan_delay=UniformDelay(args.one_way),
        wan_delay=UniformDelay(args.one_way * 5),
        trace_enabled=True,
        telemetry=telemetry,
    )
    frames = run_top(
        service,
        telemetry,
        horizon=args.horizon,
        refresh=args.refresh,
        interactive=sys.stdout.isatty() and not args.no_clear,
    )
    print(f"\n{frames} frames over {args.horizon:g} simulated seconds.")
    return 0


def cmd_gauntlet(g: gauntlet.Gauntlet, args: argparse.Namespace) -> int:
    """Every gauntlet subcommand: run ``g`` with the parsed flags."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return gauntlet.main(g, **flags)


def _gauntlet_parser(
    sub,
    name: str,
    help: str,
    *,
    command: Optional[str] = None,
    seeds: bool = True,
    json: bool = True,
) -> argparse.ArgumentParser:
    """A gauntlet subcommand: ``--seeds`` (defaulting to the gauntlet's
    own), ``--json``, and ``--telemetry-out`` when it writes bundles."""
    g = GAUNTLETS[name]
    parser = sub.add_parser(command or name, help=help)
    if seeds:
        parser.add_argument("--seeds", type=int, nargs="+", default=list(g.seeds),
                            help="seeds to run (each runs every cell and arm)")
    if json:
        parser.add_argument("--json", default=None, metavar="PATH",
                            help="also write the JSON report here (CI artefact)")
    if g.telemetry is not None:
        parser.add_argument("--telemetry-out", metavar="DIR",
                            help="write each run's telemetry bundle into "
                                 f"DIR/{g.bundle}/ (the nightly soak artefacts)")
    parser.set_defaults(func=functools.partial(cmd_gauntlet, g))
    return parser


def cmd_profile(args: argparse.Namespace) -> int:
    """The ``profile`` subcommand: cProfile a seeded figure-1 workload.

    Runs the scalar engine on the benchmark mesh so kernel speedups are
    attributable function by function; prints the top-N hot functions and
    optionally writes them as JSON.
    """
    import cProfile
    import json as json_module
    import pstats

    if args.servers < 2 or args.horizon <= 0 or args.tau <= 0:
        print(
            "profile: need --servers >= 2 and positive --horizon/--tau",
            file=sys.stderr,
        )
        return 2
    policy = POLICIES[args.policy]()
    specs = [
        ServerSpec(
            name=f"S{k + 1}",
            delta=1e-5,
            skew=((-1) ** k) * 1e-5 * 0.8 * (k + 1) / args.servers,
            initial_error=0.002 + 0.001 * k,
        )
        for k in range(args.servers)
    ]
    service = build_service(
        full_mesh(args.servers),
        specs,
        policy=policy,
        tau=args.tau,
        seed=args.seed,
        lan_delay=UniformDelay(0.01),
        trace_enabled=False,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    service.run_until(args.horizon)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(pstats.SortKey.CUMULATIVE)
    total_time = sum(row[2] for row in stats.stats.values())
    rows = []
    for (filename, lineno, funcname), (
        ncalls,
        _primitive,
        tottime,
        cumtime,
        _callers,
    ) in sorted(stats.stats.items(), key=lambda item: -item[1][2]):
        rows.append(
            {
                "function": funcname,
                "location": f"{os.path.basename(filename)}:{lineno}",
                "ncalls": ncalls,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
                "tottime_pct": round(100.0 * tottime / total_time, 2)
                if total_time
                else 0.0,
            }
        )
        if len(rows) >= args.top:
            break
    events = service.engine.events_processed
    print(
        f"profile: {args.policy.upper()} full_mesh({args.servers}), "
        f"τ={args.tau:g}s, horizon {args.horizon:g}s, seed {args.seed} — "
        f"{events} events, {total_time:.3f}s profiled"
    )
    print(
        render_table(
            ["function", "location", "ncalls", "tottime", "cumtime", "tot%"],
            [
                [
                    row["function"],
                    row["location"],
                    row["ncalls"],
                    f"{row['tottime']:.4f}",
                    f"{row['cumtime']:.4f}",
                    f"{row['tottime_pct']:.1f}",
                ]
                for row in rows
            ],
        )
    )
    if args.json:
        report = {
            "workload": {
                "policy": args.policy.upper(),
                "servers": args.servers,
                "tau": args.tau,
                "horizon": args.horizon,
                "seed": args.seed,
                "events": events,
            },
            "total_profiled_seconds": round(total_time, 6),
            "hot_functions": rows,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: map the steady-state response surface."""
    from .sweeps import ParameterGrid, mesh_steady_state, run_sweep

    grid = ParameterGrid.of(
        policy=args.policies,
        n=args.sizes,
        tau=args.taus,
        one_way=args.one_ways,
    )
    print(f"sweeping {len(grid)} points x {args.replications} replications...")
    result = run_sweep(
        mesh_steady_state,
        grid,
        replications=args.replications,
        base_seed=args.seed,
    )
    print(result.to_table())
    if result.failures:
        print(f"{len(result.failures)} failed points:", file=sys.stderr)
        for point in result.failures:
            print(f"  {point.label}: {point.error}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Marzullo & Owicki (1983) time-service reproduction: simulate "
            "interval-based clock synchronization, regenerate the paper's "
            "figures and experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="build and run a service")
    sim.add_argument("--topology", default="mesh",
                     choices=["mesh", "ring", "line", "star", "internet", "random"])
    sim.add_argument("--servers", type=int, default=4)
    sim.add_argument("--policy", default="im", choices=sorted(POLICIES))
    sim.add_argument("--delta", type=float, default=1e-5,
                     help="claimed maximum drift rate δ (s/s)")
    sim.add_argument("--fill", type=float, default=0.9,
                     help="fraction of ±δ the actual skews span")
    sim.add_argument("--tau", type=float, default=60.0, help="poll period (s)")
    sim.add_argument("--one-way", type=float, default=0.05,
                     help="one-way delay bound (s); ξ is twice this")
    sim.add_argument("--hours", type=float, default=1.0)
    sim.add_argument("--samples", type=int, default=60)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--reference", type=int, default=0,
                     help="number of reference (standard) servers")
    sim.add_argument("--recovery", action="store_true",
                     help="enable third-server recovery")
    sim.add_argument("--rate-tracking", action="store_true",
                     help="enable Section 5 consonance tracking")
    sim.add_argument("--self-stabilizing", action="store_true",
                     help="enable the recovery subsystem: checkpoints, "
                          "consistency census, census-vetted group merges "
                          "(implies --recovery and rate tracking)")
    sim.add_argument("--byzantine-tolerant", action="store_true",
                     help="build Byzantine-tolerant servers running FT-IM "
                          "(fault-tolerant intersection, falseticker "
                          "reputation, liar demotion; overrides --policy "
                          "and implies --self-stabilizing)")
    sim.add_argument("--fault-budget", type=int, default=1,
                     help="initial per-round fault budget f for "
                          "--byzantine-tolerant (adapts at runtime, "
                          "capped so 2f < n)")
    sim.add_argument("--discipline", action="store_true",
                     help="enable frequency discipline (implies tracking)")
    sim.add_argument("--authenticated", action="store_true",
                     help="authenticate sync-plane messages: keyed MACs "
                          "over a canonical encoding, per-request nonces, "
                          "an anti-replay window, and the delay guard "
                          "(composes with --byzantine-tolerant)")
    sim.add_argument("--holdover", action="store_true",
                     help="enable holdover mode and the slew/step safety "
                          "rails (implies --discipline and "
                          "--self-stabilizing; clocks never step backward)")
    sim.add_argument("--report", action="store_true",
                     help="print the full operator report at the end")
    sim.add_argument("--churn", action="store_true",
                     help="enable leave/rejoin membership churn")
    sim.add_argument("--diagram", action="store_true",
                     help="print the final interval diagram")
    sim.add_argument("--export-csv", metavar="PATH")
    sim.add_argument("--export-json", metavar="PATH")
    sim.add_argument("--telemetry-out", metavar="DIR",
                     help="enable the telemetry plane and write the "
                          "Prometheus snapshot, span JSONL, and summary "
                          "into this directory")
    sim.set_defaults(func=cmd_simulate)

    fig = sub.add_parser("figures", help="regenerate the paper's figures")
    fig.add_argument("which", nargs="?", default="all",
                     choices=["all", "1", "2", "3", "4"])
    fig.set_defaults(func=cmd_figures)

    f1 = sub.add_parser(
        "figure1",
        help="instrumented Figure 1: the figure's servers under rule IM "
             "with the full telemetry plane attached",
    )
    f1.add_argument("--tau", type=float, default=60.0, help="poll period (s)")
    f1.add_argument("--seed", type=int, default=7)
    f1.add_argument("--telemetry-out", metavar="DIR",
                    help="write metrics.prom, spans.jsonl, and summary.json "
                         "into this directory")
    f1.set_defaults(func=cmd_figure1)

    top = sub.add_parser(
        "top",
        help="live text dashboard: advance a simulated service and render "
             "its telemetry every refresh interval",
    )
    top.add_argument("--topology", default="mesh",
                     choices=["mesh", "ring", "line", "star", "internet",
                              "random"])
    top.add_argument("--servers", type=int, default=4)
    top.add_argument("--policy", default="im", choices=sorted(POLICIES))
    top.add_argument("--delta", type=float, default=1e-5)
    top.add_argument("--fill", type=float, default=0.9)
    top.add_argument("--tau", type=float, default=60.0)
    top.add_argument("--one-way", type=float, default=0.05)
    top.add_argument("--horizon", type=float, default=3600.0,
                     help="simulated seconds to run")
    top.add_argument("--refresh", type=float, default=120.0,
                     help="simulated seconds between dashboard frames")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of redrawing in place")
    top.set_defaults(func=cmd_top)

    exp = sub.add_parser("experiment", help="run an experiment by name")
    exp.add_argument("name", help="experiment name, or 'list'")
    exp.set_defaults(func=cmd_experiment)

    _gauntlet_parser(
        sub,
        "figure3-liars",
        "Byzantine liar gauntlet: plain IM vs FT-IM across topologies",
        seeds=False,
    )

    _gauntlet_parser(
        sub,
        "flash-crowd",
        "client overload vs the sync plane: plain vs admission-controlled",
    )

    chaos = GAUNTLETS["chaos-soak"]
    cha = _gauntlet_parser(
        sub,
        "chaos-soak",
        "seeded chaos soak with invariant oracle",
        command="chaos",
        seeds=False,
        json=False,
    )
    cha.add_argument("--policies", dest="arms", nargs="+",
                     default=list(chaos.arms), choices=list(chaos.arms))
    cha.add_argument("--servers", type=int, default=chaos.params["servers"])
    cha.add_argument("--tau", type=float, default=chaos.params["tau"])
    cha.add_argument("--horizon", type=float, default=chaos.params["horizon"],
                     help="simulated seconds per storm")
    cha.add_argument("--seeds", type=int, default=3,
                     help="number of seeded storms per policy")
    cha.add_argument("--seed", dest="compare_seed", type=int,
                     default=chaos.params["compare_seed"],
                     help="seed for the --compare run")
    cha.add_argument("--compare", action="store_true",
                     help="also run the plain-vs-hardened comparison")

    dyn = _gauntlet_parser(
        sub,
        "dynamic-gauntlet",
        "live topology mutation: MM/IM/gradient arms vs the local-skew "
        "bound under edge churn and mobility",
    )
    dyn.add_argument("--horizon", type=float,
                     default=GAUNTLETS["dynamic-gauntlet"].params["horizon"],
                     help="simulated seconds per run")

    _gauntlet_parser(
        sub,
        "blackout-gauntlet",
        "reference blackout: disciplined holdover vs free-running MM on "
        "true error, monotonicity and reintegration",
    )

    _gauntlet_parser(
        sub,
        "mitm-gauntlet",
        "on-path adversary: tamper/replay/delay-attack/spoof cells vs "
        "plain, hardened, and authenticated arms under the strict "
        "invariant oracle",
    )

    live = _gauntlet_parser(
        sub,
        "live-gauntlet",
        "real-socket runtime plane: a supervised 5-process loopback UDP "
        "cluster behind a fault-injecting proxy (10%% loss, delay spike, "
        "on-path tamper, SIGKILL crash/restart) — plain vs "
        "hardened+authenticated arms under live MM-1 probes",
    )
    live.add_argument("--duration", type=float,
                      default=GAUNTLETS["live-gauntlet"].params["duration"],
                      help="measurement window per arm, seconds of wall time")

    scale = GAUNTLETS["scale-gauntlet"]
    scl = _gauntlet_parser(
        sub,
        "scale-gauntlet",
        "vectorized kernel at scale: MM vs IM stratum hierarchies at "
        "1k-50k servers, per-stratum Lemma 1 growth, Theorem 8 "
        "comparison, neighbour-interval census",
    )
    scl.add_argument("--sizes", dest="cells", type=int, nargs="+",
                     default=list(scale.cells),
                     help="stratum-hierarchy server counts to run")
    scl.add_argument("--shards", type=int, default=scale.params["shards"],
                     help="topology shards for the bulk kernel")
    scl.add_argument("--processes", type=int, default=scale.params["processes"],
                     help="worker processes (0 = advance shards in-process)")
    scl.add_argument("--tau", type=float, default=scale.params["tau"],
                     help="poll period, simulated seconds")
    scl.add_argument("--cycles", type=int, default=scale.params["cycles"],
                     help="poll cycles to simulate per run")

    prf = sub.add_parser(
        "profile",
        help="cProfile a seeded figure-1 workload on the scalar engine and "
             "report the top-N hot functions (JSON optional)",
    )
    prf.add_argument("--servers", type=int, default=8,
                     help="full-mesh size (the benchmark workload)")
    prf.add_argument("--policy", default="mm", choices=sorted(POLICIES),
                     help="synchronization policy to profile")
    prf.add_argument("--tau", type=float, default=10.0,
                     help="poll period, simulated seconds")
    prf.add_argument("--horizon", type=float, default=3600.0,
                     help="simulated seconds to run under the profiler")
    prf.add_argument("--seed", type=int, default=0,
                     help="RNG registry seed")
    prf.add_argument("--top", type=int, default=15,
                     help="number of hot functions to report")
    prf.add_argument("--json", default=None, metavar="PATH",
                     help="also write the profile report here")
    prf.set_defaults(func=cmd_profile)

    swp = sub.add_parser("sweep", help="steady-state parameter sweep")
    swp.add_argument("--policies", nargs="+", default=["MM", "IM"],
                     choices=["MM", "IM"])
    swp.add_argument("--sizes", nargs="+", type=int, default=[3, 6])
    swp.add_argument("--taus", nargs="+", type=float, default=[30.0, 120.0])
    swp.add_argument("--one-ways", nargs="+", type=float, default=[0.01])
    swp.add_argument("--replications", type=int, default=1)
    swp.add_argument("--seed", type=int, default=0)
    swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
