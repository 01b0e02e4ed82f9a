"""Command-line entry point: regenerate any of the paper's experiments.

Usage::

    repro-power list
    repro-power table1 [--platform skylake]
    repro-power fig1 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | fig10 \
                | fig11 | fig12
    repro-power run --platform skylake --policy frequency-shares \
                --limit 50 --apps leela:90,cactusBSSN:10 --duration 40
    repro-power run --faults full-storm --fault-seed 7 --duration 120
    repro-power report --quick --jobs 4
    repro-power sweep --seeds 10 --jobs 4
    repro-power fleet --quick
    repro-power fleet --partition-rack row1/rack3
    repro-power faults [--json]

``--quick`` shortens runs for smoke testing; results keep their shape
but are noisier.  ``--jobs N`` (report/sweep) fans independent runs
across N worker processes; results are deterministic and input-ordered
regardless of N.  Completed runs are cached on disk keyed by their full
config — ``--no-cache`` (or ``REPRO_NO_CACHE=1``) bypasses the cache.
``--faults`` replays a named, seeded fault scenario
against the daemon (flaky MSRs, garbage counters, dropped ticks, app
crashes) and reports its health record — holdovers, retries,
quarantines, and safe-mode transitions.  ``--engine scalar|array``
(run/watch/sweep/cluster) picks the simulation engine — the batched
array kernel by default, the scalar reference for cross-checks; both
produce bit-identical results.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import AppSpec, ENGINES, ExperimentConfig
from repro.core.types import Priority
from repro.errors import ReproError
from repro.experiments.report import render_kv, render_table
from repro.experiments.runner import BATCH_TICK_S, run_steady
from repro.experiments import tables as tables_mod


def _duration_args(args) -> dict:
    if args.quick:
        return {"duration_s": 30.0, "warmup_s": 12.0}
    return {}


def _cmd_table1(args) -> int:
    print(render_kv(tables_mod.table1_features(args.platform),
                    title=f"Table 1 — {args.platform}"))
    return 0


def _cmd_table2(args) -> int:
    print(render_table(tables_mod.table2_rows(), title="Table 2"))
    return 0


def _cmd_table3(args) -> int:
    print(render_table(tables_mod.table3_rows(), title="Table 3"))
    return 0


def _cmd_fig1(args) -> int:
    from repro.experiments.rapl_interference import run_fig1_rapl_interference

    result = run_fig1_rapl_interference(**_duration_args(args))
    print(render_table(result.to_rows(), title="Fig 1 — RAPL interference"))
    return 0


def _cmd_fig2(args) -> int:
    from repro.experiments.dvfs_sweep import run_dvfs_sweep

    result = run_dvfs_sweep("skylake")
    print(render_table(result.to_rows(), title="Fig 2 — DVFS sweep (Skylake)"))
    return 0


def _cmd_fig3(args) -> int:
    from repro.experiments.dvfs_sweep import run_dvfs_sweep

    result = run_dvfs_sweep("ryzen")
    print(render_table(result.to_rows(), title="Fig 3 — DVFS sweep (Ryzen)"))
    return 0


def _cmd_fig4(args) -> int:
    from repro.experiments.rapl_interference import run_fig4_percore_dvfs

    result = run_fig4_percore_dvfs(**_duration_args(args))
    print(render_table(result.to_rows(), title="Fig 4 — RAPL + per-core DVFS"))
    return 0


def _cmd_fig5(args) -> int:
    from repro.experiments.latency_exp import run_fig5_unfair_throttling

    result = run_fig5_unfair_throttling(**_duration_args(args))
    print(render_table(result.to_rows(), title="Fig 5 — unfair throttling"))
    return 0


def _cmd_fig6(args) -> int:
    from repro.experiments.timeshare_exp import run_fig6_timeshare

    result = run_fig6_timeshare()
    print(render_table(result.to_rows(), title="Fig 6 — time-shared power"))
    return 0


def _cmd_fig7(args) -> int:
    from repro.experiments.priority_exp import run_fig7_priority_skylake

    result = run_fig7_priority_skylake(**_duration_args(args))
    print(render_table(result.to_rows(), title="Fig 7 — priority (Skylake)"))
    return 0


def _cmd_fig8(args) -> int:
    from repro.experiments.priority_exp import run_fig8_priority_ryzen

    result = run_fig8_priority_ryzen(**_duration_args(args))
    print(render_table(result.to_rows(), title="Fig 8 — priority (Ryzen)"))
    return 0


def _cmd_fig9(args) -> int:
    from repro.experiments.shares_exp import run_fig9_shares_skylake

    result = run_fig9_shares_skylake(**_duration_args(args))
    print(render_table(result.to_rows(), title="Fig 9 — shares (Skylake)"))
    return 0


def _cmd_fig10(args) -> int:
    from repro.experiments.shares_exp import run_fig10_shares_ryzen

    result = run_fig10_shares_ryzen(**_duration_args(args))
    print(render_table(result.to_rows(), title="Fig 10 — shares (Ryzen)"))
    return 0


def _cmd_fig11(args) -> int:
    from repro.experiments.random_exp import run_fig11_random_skylake

    result = run_fig11_random_skylake(**_duration_args(args))
    print(render_table(result.to_rows(), title="Fig 11 — random mixes"))
    return 0


def _cmd_fig12(args) -> int:
    from repro.experiments.latency_exp import (
        normalized_latency,
        run_fig12_policies,
    )

    result = run_fig12_policies(**_duration_args(args))
    print(render_table(result.to_rows(), title="Figs 12/13 — latency policies"))
    rows = []
    for limit in sorted({r.limit_w for r in result.runs}):
        for policy in ("rapl", "frequency-shares", "performance-shares"):
            try:
                rows.append(
                    {
                        "policy": policy,
                        "limit_w": limit,
                        "latency_vs_alone": normalized_latency(
                            result, policy, limit
                        ),
                    }
                )
            except ReproError:
                continue
    print(render_table(rows, title="Fig 12 normalized"))
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.full_report import generate_report

    generate_report(
        quick=args.quick,
        stream=sys.stdout,
        jobs=getattr(args, "jobs", None),
        use_cache=not getattr(args, "no_cache", False),
    )
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments.cache import ResultCache
    from repro.experiments.random_sweep import run_random_sweep

    cache = ResultCache.from_env(enabled=not args.no_cache)
    result = run_random_sweep(
        policy=args.policy,
        limit_w=args.limit,
        n_seeds=args.seeds,
        **(
            {"duration_s": 20.0, "warmup_s": 9.0} if args.quick else {}
        ),
        jobs=args.jobs,
        cache=cache,
        engine=args.engine,
    )
    print(render_table(result.to_rows(), title=(
        f"Random sweep — {result.policy} @ {result.limit_w:.0f} W, "
        f"{args.seeds} seeds"
    )))
    print(f"total ordering violations: "
          f"{result.total_ordering_violations()}")
    if cache is not None:
        print(f"cache: {cache.stats.hits} hits, "
              f"{cache.stats.misses} misses, "
              f"{cache.stats.stores} stored")
    return 0


def _cmd_cluster(args) -> int:
    from repro.cluster import ClusterConfig, NodeSpec
    from repro.experiments.cache import ResultCache
    from repro.experiments.cluster_exp import run_cluster_experiment

    if args.shares:
        shares = [float(part) for part in args.shares.split(",")]
    else:
        shares = [2.0 if i < args.nodes // 2 else 1.0
                  for i in range(args.nodes)]
    apps = _parse_apps(args.apps)
    nodes = []
    for i, node_shares in enumerate(shares):
        name = f"node{i}"
        crash = (
            args.crash_at
            if args.crash_node is not None and args.crash_node == i
            else None
        )
        nodes.append(NodeSpec(
            name=name,
            apps=apps,
            platform=args.platform,
            policy=args.policy,
            shares=node_shares,
            crashes_at_s=crash,
            faults=args.faults,
        ))
    config = ClusterConfig(
        budget_w=args.budget,
        nodes=tuple(nodes),
        epoch_ticks=args.epoch_ticks,
        seed=args.seed,
        transport=args.transport_faults,
        lease_ttl_epochs=args.lease_ttl,
        crash_faults=args.crash_faults,
        telemetry=args.telemetry_faults,
        **({} if args.engine is None else {"engine": args.engine}),
    )
    cache = ResultCache.from_env(enabled=not args.no_cache)
    result = run_cluster_experiment(
        config,
        duration_s=args.duration,
        warmup_s=min(args.duration / 3, 40.0),
        jobs=args.jobs,
        cache=cache,
    )
    print(render_table(result.to_rows(), title=(
        f"Cluster — {len(nodes)} nodes, {args.policy} @ "
        f"{args.budget:.0f} W facility budget, "
        f"epoch {args.epoch_ticks} ticks"
    )))
    print(f"mean cluster power {result.mean_total_power_w:.1f} W; "
          f"max cap sum {result.max_cap_sum_w:.1f} W of "
          f"{args.budget:.0f} W budget; "
          f"cap violations {result.cap_violations}")
    if args.transport_faults is not None:
        t = result.transport
        print(
            f"control plane ({args.transport_faults}, lease TTL "
            f"{args.lease_ttl} epochs): "
            f"{t.get('sent', 0)} sent, {t.get('delivered', 0)} delivered, "
            f"{t.get('dropped', 0)} dropped, {t.get('delayed', 0)} delayed, "
            f"{t.get('duplicated', 0)} duplicated, "
            f"{t.get('stale', 0)} stale; "
            f"{result.safe_node_epochs} safe node-epochs, "
            f"{result.degraded_grants} degraded grants"
        )
    if args.crash_faults is not None:
        print(
            f"crash faults ({args.crash_faults}): "
            f"{result.crash_recoveries} arbiter recoveries (journal "
            f"redo), {result.node_restarts} node restarts, "
            f"{result.safe_node_epochs} safe node-epochs"
        )
    if args.telemetry_faults is not None:
        print(
            f"telemetry faults ({args.telemetry_faults}): "
            f"{result.trust_violations} reports flagged, "
            f"{result.quarantined_node_epochs} quarantined "
            f"node-epochs, {result.brownout_epochs} brownout epochs"
        )
    if cache is not None:
        print(f"cache: {cache.stats.hits} hits, "
              f"{cache.stats.misses} misses, "
              f"{cache.stats.stores} stored")
    return 0


def _cmd_fleet(args) -> int:
    from repro.experiments.cache import ResultCache
    from repro.experiments.fleet_exp import (
        fleet_config,
        fleet_rollup,
        oversubscription_report,
        rack_partition,
        run_fleet_experiment,
    )
    from repro.fleet import DiurnalSchedule, grid_topology

    if args.quick:
        rows, racks, rack_nodes, epoch_ticks = 2, 2, 8, 4
    else:
        rows, racks, rack_nodes, epoch_ticks = (
            args.rows, args.racks, args.rack_nodes, args.epoch_ticks
        )
    schedule = DiurnalSchedule(
        period_epochs=args.period,
        base_active_fraction=args.trough,
        peak_active_fraction=args.peak,
        row_phase_epochs=args.row_phase,
    )
    transport = None
    if args.partition_rack is not None:
        topology, _ = grid_topology(rows, racks, rack_nodes)
        transport = rack_partition(
            topology,
            args.partition_rack,
            args.partition_start,
            args.partition_end,
        )
    config = fleet_config(
        rows,
        racks,
        rack_nodes,
        seed=args.seed,
        schedule=schedule,
        budget_w=args.budget,
        transport=transport,
        crash_faults=args.crash_faults,
        lease_ttl_epochs=args.lease_ttl,
        epoch_ticks=epoch_ticks,
        engine=args.engine,
    )
    forecast = oversubscription_report(config)
    n_nodes = len(config.nodes)
    print(render_kv(
        {
            "nodes": f"{rows} rows x {racks} racks x {rack_nodes} "
                     f"= {n_nodes}",
            "budget_w": f"{config.budget_w:.1f}",
            "sum_ceilings_w": f"{forecast.ceiling_sum_w:.1f}",
            "oversubscription": f"{forecast.ratio:.2f}x",
            "forecast_peak_w": f"{forecast.peak_demand_w:.1f}",
            "forecast_margin_w": f"{forecast.margin_w:.1f}",
            "statistically_safe": str(forecast.safe).lower(),
        },
        title="Fleet — oversubscribed facility budget",
    ))
    cache = ResultCache.from_env(enabled=not args.no_cache)
    result = run_fleet_experiment(
        config,
        duration_s=(
            args.days * args.period * config.epoch_s
            if args.days is not None else None
        ),
        jobs=args.jobs,
        cache=cache,
    )
    print(render_table(fleet_rollup(result), title=(
        f"Row roll-up — diurnal day, {result.duration_s:.0f}s "
        f"simulated"
    )))
    total_epochs = int(result.duration_s / config.epoch_s)
    print(
        f"invariant: max cap sum {result.max_cap_sum_w:.1f} W of "
        f"{config.budget_w:.1f} W budget over {total_epochs} epochs; "
        f"violations {result.cap_violations}"
    )
    print(
        f"SLO attainment {result.slo_attainment:.3f} "
        f"(throttle <= 0.25 on active node-epochs); "
        f"{result.shed_grants} grants shed to floor; "
        f"{result.idle_node_epochs} idle node-epochs skipped"
    )
    if transport is not None:
        print(
            f"rack partition {args.partition_rack} epochs "
            f"{args.partition_start}-{args.partition_end}: "
            f"{result.safe_node_epochs} safe node-epochs, "
            f"{result.degraded_grants} degraded grants "
            f"(contained to {rack_nodes} nodes)"
        )
    if args.crash_faults is not None:
        print(
            f"crash faults ({args.crash_faults}): "
            f"{result.crash_recoveries} arbiter recoveries, "
            f"{result.node_restarts} node restarts"
        )
    if cache is not None:
        print(f"cache: {cache.stats.hits} hits, "
              f"{cache.stats.misses} misses, "
              f"{cache.stats.stores} stored")
    return 0


def _cmd_gaming(args) -> int:
    from repro.experiments.gaming_exp import run_gaming_experiment

    result = run_gaming_experiment()
    print(render_table(result.to_rows(), title=(
        f"Gaming ablation — {result.benchmark}, performance shares @ "
        f"{result.limit_w:.0f} W"
    )))
    print(f"gaming payoff: {result.gaming_payoff:.2f} "
          "(<1: padding with NOPs backfired)")
    return 0


def _cmd_consolidation(args) -> int:
    from repro.experiments.consolidation_exp import (
        run_consolidation_experiment,
    )

    rows = [
        run_consolidation_experiment(consolidate=mode).to_row()
        for mode in (False, True)
    ]
    print(render_table(rows, title=(
        "LP starvation vs consolidation (3H7L @ 40 W)"
    )))
    return 0


def _print_health(stack) -> None:
    """Report daemon degradation for a fault-injected run."""
    from repro.faults import health_summary

    summary = health_summary(stack.daemon.history)
    if stack.fault_msr is not None:
        stats = stack.fault_msr.stats
        summary["injected_msr_faults"] = stats.total()
    if stack.tick_gate is not None:
        summary["dropped_ticks"] = stack.tick_gate.stats.dropped
        summary["jittered_ticks"] = stack.tick_gate.stats.jittered
    print()
    print(render_kv(summary, title=(
        f"Daemon health — faults={stack.faults.name} "
        f"(seed {stack.faults.seed})"
    )))


def _cmd_watch(args) -> int:
    from repro.config import build_stack
    from repro.experiments.sparkline import sparkline, strip_chart

    config = ExperimentConfig(
        platform=args.platform,
        policy=args.policy,
        limit_w=args.limit,
        apps=_parse_apps(args.apps),
        tick_s=BATCH_TICK_S,
        faults=args.faults,
        fault_seed=args.fault_seed,
        **({} if args.engine is None else {"engine": args.engine}),
    )
    stack = build_stack(config)
    stack.engine.run(args.duration)
    history = stack.daemon.history
    power = [s.package_power_w for s in history]
    print(strip_chart(
        power,
        label=(
            f"package power, {args.policy} @ {args.limit:.0f} W "
            f"(dashes mark the limit)"
        ),
        reference=args.limit,
    ))
    print()
    width = max(len(label) for label in stack.labels)
    for label in stack.labels:
        series = [s.app_frequency_mhz[label] for s in history]
        print(f"{label.ljust(width)}  {sparkline(series, width=60)} "
              f"{series[-1]:6.0f} MHz")
    if stack.faults is not None:
        modes = [
            "S" if s.health.mode == "safe" else
            ("h" if s.health.holdover else ".")
            for s in history
        ]
        print(f"{'mode'.ljust(width)}  {''.join(modes[-60:])} "
              "(.=normal h=holdover S=safe)")
        _print_health(stack)
    return 0


def _parse_apps(spec: str) -> tuple[AppSpec, ...]:
    apps = []
    for part in spec.split(","):
        fields = part.strip().split(":")
        name = fields[0]
        shares = float(fields[1]) if len(fields) > 1 else 1.0
        priority = Priority.LOW if (
            len(fields) > 2 and fields[2].lower().startswith("l")
        ) else Priority.HIGH
        apps.append(AppSpec(name, shares=shares, priority=priority))
    return tuple(apps)


def _cmd_run(args) -> int:
    from repro.config import build_stack

    config = ExperimentConfig(
        platform=args.platform,
        policy=args.policy,
        limit_w=args.limit,
        apps=_parse_apps(args.apps),
        tick_s=BATCH_TICK_S,
        faults=args.faults,
        fault_seed=args.fault_seed,
        **({} if args.engine is None else {"engine": args.engine}),
    )
    stack = build_stack(config)
    result = run_steady(
        config,
        duration_s=args.duration,
        warmup_s=min(args.duration / 2, 20.0),
        stack=stack,
    )
    rows = [
        {
            "app": a.label,
            "freq_mhz": a.mean_frequency_mhz,
            "norm_perf": a.normalized_performance,
            "core_w": a.mean_power_w,
            "parked": a.parked_fraction,
        }
        for a in result.apps
    ]
    print(render_table(rows, title=(
        f"{args.policy} @ {args.limit} W on {args.platform} "
        f"(pkg {result.mean_package_power_w:.1f} W)"
    )))
    if stack.faults is not None:
        _print_health(stack)
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "fig12": _cmd_fig12,
    "fig13": _cmd_fig12,  # Fig 13 data comes out of the Fig 12 runs
    "gaming": _cmd_gaming,
    "consolidation": _cmd_consolidation,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-power",
        description=(
            "Reproduce experiments from 'Per-Application Power Delivery' "
            "(EuroSys 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    list_parser = sub.add_parser("list", help="list available experiments")
    faults_parser = sub.add_parser(
        "faults", help="list fault-injection scenarios for --faults"
    )
    faults_parser.add_argument(
        "--json", action="store_true",
        help="machine-readable listing (all scenario fields, one JSON "
             "object keyed by scenario family)",
    )
    for name in _COMMANDS:
        exp_parser = sub.add_parser(name, help=f"regenerate {name}")
        exp_parser.add_argument("--platform", default="skylake")
        exp_parser.add_argument(
            "--quick", action="store_true", help="shorter, noisier runs"
        )
        if name == "report":
            exp_parser.add_argument(
                "--jobs", type=int, default=None, metavar="N",
                help="fan independent runs across N worker processes",
            )
            exp_parser.add_argument(
                "--no-cache", action="store_true",
                help="bypass the on-disk result cache",
            )
    # 'lint' is listed for help/discoverability; main() forwards its
    # arguments to repro.analysis.cli before this parser ever runs
    # (argparse.REMAINDER cannot forward leading options).
    sub.add_parser(
        "lint",
        help="static analysis: determinism, unit-safety, fail-safety "
             "contracts (see DESIGN.md §10)",
        add_help=False,
    )
    cluster = sub.add_parser(
        "cluster",
        help="N simulated nodes under one facility budget "
             "(hierarchical arbitration)",
    )
    cluster.add_argument("--nodes", type=int, default=4, metavar="N",
                         help="number of nodes (default 4)")
    cluster.add_argument("--budget", type=float, default=150.0,
                         help="facility power budget, watts")
    cluster.add_argument(
        "--shares", default=None, metavar="S0,S1,...",
        help="per-node shares (overrides --nodes; default 2:...:1:...)",
    )
    cluster.add_argument("--platform", default="skylake")
    cluster.add_argument("--policy", default="frequency-shares")
    cluster.add_argument(
        "--apps",
        default="leela:50,cactusBSSN:50,leela:50,cactusBSSN:50,"
                "leela:50,cactusBSSN:50",
        help="per-node app list, name[:shares[:high|low]] comma list",
    )
    cluster.add_argument("--epoch-ticks", type=int, default=10,
                         help="daemon iterations per arbitration epoch")
    cluster.add_argument("--duration", type=float, default=120.0,
                         help="simulated seconds")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument(
        "--crash-node", type=int, default=None, metavar="I",
        help="index of a node to crash mid-run",
    )
    cluster.add_argument(
        "--crash-at", type=float, default=60.0, metavar="T",
        help="cluster time of the crash (with --crash-node)",
    )
    cluster.add_argument(
        "--faults", default=None, metavar="SCENARIO",
        help="inject a named fault scenario into every node's daemon "
             "(per-node schedules derive from --seed)",
    )
    cluster.add_argument(
        "--transport-faults", default=None, metavar="SCENARIO",
        help="inject a named control-plane fault scenario into the "
             "node<->arbiter message layer (see 'repro-power faults')",
    )
    cluster.add_argument(
        "--telemetry-faults", default=None, metavar="SCENARIO",
        help="corrupt the node->arbiter report stream with a named "
             "telemetry scenario — stuck sensors, drift, demand "
             "inflation, NaN bursts (see 'repro-power faults')",
    )
    cluster.add_argument(
        "--lease-ttl", type=int, default=3, metavar="EPOCHS",
        help="cap-lease TTL in epochs before a silent node steps down "
             "to its floor and then to RAPL-backstop safe mode",
    )
    cluster.add_argument(
        "--crash-faults", default=None, metavar="SCENARIO",
        help="inject a named crash scenario — seeded arbiter crashes "
             "(recovered by journal redo) and node crash/restart "
             "windows (see 'repro-power faults')",
    )
    cluster.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="step nodes across N worker processes (byte-identical "
             "to serial)",
    )
    cluster.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache",
    )
    cluster.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="simulation engine for every node stack (default: "
             "REPRO_SIM_ENGINE or 'array'; results are bit-identical)",
    )
    fleet = sub.add_parser(
        "fleet",
        help="facility -> row -> rack -> node hierarchy at 1,000+ "
             "nodes: diurnal traffic under an oversubscribed budget",
    )
    fleet.add_argument("--rows", type=int, default=4,
                       help="rows in the facility (default 4)")
    fleet.add_argument("--racks", type=int, default=8, metavar="N",
                       help="racks per row (default 8)")
    fleet.add_argument("--rack-nodes", type=int, default=32, metavar="N",
                       help="nodes per rack (default 32; 4x8x32=1024)")
    fleet.add_argument(
        "--budget", type=float, default=None,
        help="facility budget, watts (default: 1.02x the forecast "
             "diurnal peak — statistically-safe oversubscription)",
    )
    fleet.add_argument("--period", type=int, default=24, metavar="EPOCHS",
                       help="diurnal period length (default 24)")
    fleet.add_argument("--trough", type=float, default=0.15,
                       help="active fraction at the diurnal trough")
    fleet.add_argument("--peak", type=float, default=0.65,
                       help="active fraction at the diurnal peak")
    fleet.add_argument(
        "--row-phase", type=int, default=2, metavar="EPOCHS",
        help="phase shift between rows (traffic rolls across the fleet)",
    )
    fleet.add_argument(
        "--days", type=float, default=None,
        help="periods to simulate (default 1.0 — one full day)",
    )
    fleet.add_argument("--epoch-ticks", type=int, default=10,
                       help="daemon iterations per arbitration epoch")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--partition-rack", default=None, metavar="ROW/RACK",
        help="sever one whole rack from the arbiter (e.g. row1/rack3); "
             "only that subtree degrades to floors and SAFE",
    )
    fleet.add_argument(
        "--partition-start", type=int, default=8, metavar="EPOCH",
        help="partition window start (with --partition-rack)",
    )
    fleet.add_argument(
        "--partition-end", type=int, default=14, metavar="EPOCH",
        help="partition window end, exclusive (with --partition-rack)",
    )
    fleet.add_argument(
        "--crash-faults", default=None, metavar="SCENARIO",
        help="inject a named crash scenario (see 'repro-power faults')",
    )
    fleet.add_argument(
        "--lease-ttl", type=int, default=3, metavar="EPOCHS",
        help="cap-lease TTL in epochs",
    )
    fleet.add_argument(
        "--quick", action="store_true",
        help="small smoke fleet (2x2x8 nodes, short epochs)",
    )
    fleet.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="step nodes across N worker processes (byte-identical "
             "to serial)",
    )
    fleet.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache",
    )
    fleet.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="simulation engine for every node stack",
    )
    sweep = sub.add_parser(
        "sweep", help="seeded random-mix sweep (generalized Fig 11)"
    )
    sweep.add_argument("--policy", default="frequency-shares")
    sweep.add_argument("--limit", type=float, default=45.0)
    sweep.add_argument("--seeds", type=int, default=5)
    sweep.add_argument(
        "--quick", action="store_true", help="shorter, noisier runs"
    )
    sweep.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan independent runs across N worker processes",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache",
    )
    sweep.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="simulation engine for every run (default: "
             "REPRO_SIM_ENGINE or 'array'; results are bit-identical)",
    )
    for name, helptext in (
        ("run", "run a custom configuration"),
        ("watch", "run a custom configuration and chart its dynamics"),
    ):
        custom = sub.add_parser(name, help=helptext)
        custom.add_argument("--platform", default="skylake")
        custom.add_argument("--policy", default="frequency-shares")
        custom.add_argument("--limit", type=float, default=50.0)
        custom.add_argument(
            "--apps",
            default="leela:90,cactusBSSN:10",
            help="comma list of name[:shares[:high|low]]",
        )
        custom.add_argument("--duration", type=float, default=40.0)
        custom.add_argument(
            "--faults",
            default=None,
            metavar="SCENARIO",
            help=(
                "inject a named fault scenario into the daemon "
                "(see 'repro-power faults')"
            ),
        )
        custom.add_argument(
            "--fault-seed", type=int, default=0,
            help="seed for the fault schedule (deterministic replay)",
        )
        custom.add_argument(
            "--engine", choices=ENGINES, default=None,
            help="simulation engine (default: REPRO_SIM_ENGINE or "
                 "'array'; results are bit-identical)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["lint"]:
        from repro.analysis.cli import run_lint

        return run_lint(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(_COMMANDS) + [
            "cluster", "fleet", "lint", "run", "sweep", "watch"
        ]:
            print(name)
        return 0
    if args.command == "faults":
        from repro.faults import (
            CRASH_SCENARIOS,
            SCENARIOS,
            TELEMETRY_SCENARIOS,
            TRANSPORT_SCENARIOS,
        )

        if args.json:
            import dataclasses
            import json

            payload = {
                "daemon": {
                    name: dataclasses.asdict(s)
                    for name, s in SCENARIOS.items()
                },
                "transport": {
                    name: dataclasses.asdict(s)
                    for name, s in TRANSPORT_SCENARIOS.items()
                },
                "crash": {
                    name: dataclasses.asdict(s)
                    for name, s in CRASH_SCENARIOS.items()
                },
                "telemetry": {
                    name: dataclasses.asdict(s)
                    for name, s in TELEMETRY_SCENARIOS.items()
                },
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        width = max(
            len(name)
            for name in (
                list(SCENARIOS)
                + list(TRANSPORT_SCENARIOS)
                + list(CRASH_SCENARIOS)
                + list(TELEMETRY_SCENARIOS)
            )
        )
        for name, scenario in sorted(SCENARIOS.items()):
            active = [
                f for f in (
                    "msr_read_fail_rate", "msr_write_fail_rate",
                    "stuck_counter_rate", "garbage_counter_rate",
                    "wrap_storm_rate", "tick_drop_rate",
                    "tick_jitter_rate",
                ) if getattr(scenario, f) > 0
            ]
            if scenario.app_crashes:
                active.append("app_crashes")
            if scenario.window_s is not None:
                active.append(f"window={scenario.window_s}")
            print(f"{name.ljust(width)}  {', '.join(active) or 'clean'}")
        print()
        print("transport scenarios (cluster --transport-faults):")
        for name, ts in sorted(TRANSPORT_SCENARIOS.items()):
            active = [
                f for f in (
                    "drop_rate", "dup_rate", "delay_rate", "reorder_rate",
                ) if getattr(ts, f) > 0
            ]
            if ts.partitions:
                active.append(
                    "partitions=" + ",".join(
                        f"{p.node or '*'}@{p.start_epoch}-{p.end_epoch}"
                        for p in ts.partitions
                    )
                )
            print(f"{name.ljust(width)}  {', '.join(active) or 'clean'}")
        print()
        print("crash scenarios (cluster --crash-faults):")
        for name, cs in sorted(CRASH_SCENARIOS.items()):
            print(f"{name.ljust(width)}  {cs.description}")
        print()
        print("telemetry scenarios (cluster --telemetry-faults):")
        for name, tel in sorted(TELEMETRY_SCENARIOS.items()):
            active = [
                f"{f.node}:{f.kind}@{f.start_epoch}-"
                f"{'' if f.end_epoch is None else f.end_epoch}"
                for f in tel.faults
            ]
            if tel.garbage_rate > 0:
                active.append(f"garbage_rate={tel.garbage_rate}")
            print(f"{name.ljust(width)}  {', '.join(active) or 'clean'}")
        return 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "watch":
            return _cmd_watch(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
