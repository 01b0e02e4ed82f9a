#!/usr/bin/env python
"""Chaos smoke run: a simulated fault storm must never breach the limit.

Runs the daemon under the ``full-storm`` scenario on both evaluation
platforms for 60 simulated seconds (configurable) and checks the
invariant the hardening exists for, against the simulator's *ground
truth* power (not the daemon's possibly-lying telemetry):

* after a settling window, every 1 s average of package power stays at
  or below the operator limit plus tolerance, and
* the daemon never crashes and keeps emitting health records.

A cluster partition drill rides along: a node cut off from the arbiter
must walk its lease ladder down to RAPL-backstop safe mode within
``lease_ttl + 1`` epochs, the arbiter's cap-sum must stay at or below
the facility budget through the whole outage, and the healed node must
win its share back within two epochs.

A crash-recovery drill follows: under the ``node-restart`` scenario the
rebooted node must climb back to GRANTED above its floor within
``lease_ttl + 2`` epochs of its restart, it must file no reports while
down, and the cap-sum invariant must hold through the crash and rejoin
epochs.  On failure the run's write-ahead journal and cluster trace are
dumped under ``--artifact-dir`` (default ``chaos-artifacts/``) so CI
can upload them.

A brownout drill covers the untrusted-telemetry layer: an
oversubscribed cluster runs the ``liar-storm`` scenario (a greedy
inflator plus a stuck sensor plus background garbage) and both liars
must be quarantined within two epochs of their first detected
violation, honest nodes must keep at least 95 % of the mean cap they
get in a corruption-free run, and the cap-sum invariant must hold at
every epoch of the storm.  A second leg drives the facility brownout
ladder: nodes joining while a partitioned node's lease reservation
still holds its old cap push the committed load past the enter ratio,
the ladder must reach BROWNOUT1 and step back down to NORMAL once the
overload clears.

A determinism-sanitizer drill rides along too: the same small cluster
is run under the serial scalar engine, the stacked array engine, and
fork workers with per-epoch state digests recording
(:mod:`repro.analysis.sanitizer`), and all three recordings must be
identical — any divergence is reported as the first differing epoch,
node, and field with both values.

A fleet drill closes the set: a 1,024-node facility → row → rack →
node grid runs a low-activation diurnal day with one whole rack
partitioned mid-run.  The facility cap-sum invariant must hold at
every epoch, the partitioned rack must walk the lease ladder while
*no* lease outside the rack ever leaves GRANTED (the partition stays
contained to its subtree), and every lease must be GRANTED again by
the final epoch.

Exits nonzero on any violation.  Intended for CI::

    PYTHONPATH=src python scripts/chaos_smoke.py --check
    PYTHONPATH=src python scripts/chaos_smoke.py --duration 600 --seed 11

``--check`` is the CI gate: storm invariants plus the committed
``BENCH_sim.json`` throughput floors (single-socket, cluster, *and*
fleet ticks/sec, via ``bench.check_regression``).  Without it the
bench gate still runs by default; ``--skip-bench`` drops it for quick
local runs.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import AppSpec, ExperimentConfig, build_stack
from repro.errors import FaultConfigError
from repro.faults import health_summary

#: control-loop settling window before the invariant is enforced: the
#: paper's policies converge within a handful of 1 s iterations; give
#: them ten.
SETTLE_S = 10.0
#: tolerance above the limit for 1 s power averages: one daemon
#: interval of reaction lag at the storm's worst case.
TOLERANCE_W = 5.0

PLATFORM_LIMITS = {"skylake": 50.0, "ryzen": 60.0}


def run_one(platform: str, limit_w: float, scenario: str, seed: int,
            duration_s: float) -> int:
    config = ExperimentConfig(
        platform=platform,
        policy="frequency-shares",
        limit_w=limit_w,
        apps=(
            AppSpec("leela", shares=90.0),
            AppSpec("cactusBSSN", shares=10.0),
        ),
        tick_s=5e-3,
        faults=scenario,
        fault_seed=seed,
    )
    stack = build_stack(config)
    truth: list[tuple[float, float]] = []
    stack.engine.every(
        0.1,
        lambda now, s=stack: truth.append(
            (s.chip.time_s, s.chip.last_package_power_w)
        ),
    )
    stack.engine.run(duration_s)

    # 1 s windowed averages of ground-truth power
    violations = []
    window: list[float] = []
    window_start = 0.0
    for t, p in truth:
        if t - window_start >= 1.0:
            if window and window_start >= SETTLE_S:
                avg = sum(window) / len(window)
                if avg > limit_w + TOLERANCE_W:
                    violations.append((window_start, avg))
            window, window_start = [], t
        window.append(p)

    summary = health_summary(stack.daemon.history)
    status = "FAIL" if violations else "ok"
    print(f"[{status}] {platform}: limit {limit_w:.0f} W, "
          f"{summary['iterations']} iterations, "
          f"{summary['telemetry_failures']} telemetry failures, "
          f"{summary['safe_mode_entries']} safe-mode entries, "
          f"final mode {summary['final_mode']}")
    if not stack.daemon.history:
        print(f"  ERROR: daemon emitted no samples on {platform}")
        return 1
    for t, avg in violations[:10]:
        print(f"  limit violation at t={t:.1f}s: {avg:.1f} W "
              f"> {limit_w:.0f} + {TOLERANCE_W:.0f} W")
    return 1 if violations else 0


def run_partition_check(seed: int) -> int:
    """Lease expiry and recovery under a control-plane partition.

    The ``node0-partition`` scenario severs node0's link for epochs
    4–8; with the default TTL of 3 the node must hit SAFE by epoch 7
    (ttl + 1 missed renewals) and be granted its full share again by
    epoch 10 (heal + 1).  The cap-sum invariant is checked at every
    epoch of the run, partition included.
    """
    from repro.cluster import run_cluster
    from repro.experiments.cluster_exp import default_cluster_config

    config = default_cluster_config(
        n_nodes=3, transport="node0-partition", seed=seed
    )
    run = run_cluster(config, 140.0)
    ttl = config.lease_ttl_epochs
    start, heal = 4, 9  # the scenario's partition window [4, 9)
    floor = config.node("node0").min_cap_w
    failures = []
    for epoch, grant in enumerate(run.grants):
        if grant.total_w > config.budget_w + 1e-6:
            failures.append(
                f"cap-sum {grant.total_w:.3f} W over the "
                f"{config.budget_w:.0f} W budget at epoch {epoch}"
            )
    states = [st.get("node0") for st in run.lease_states]
    if "safe" not in states[start:start + ttl + 2]:
        failures.append(
            f"node0 never reached SAFE within {ttl + 1} epochs of the "
            f"partition (states {states[start:start + ttl + 2]})"
        )
    recovered = [
        epoch
        for epoch in range(heal, min(heal + 2, len(states)))
        if states[epoch] == "granted"
        and run.grants[epoch].caps_w.get("node0", 0.0) > floor
    ]
    if not recovered:
        failures.append(
            "node0 was not re-admitted above its floor within 2 epochs "
            f"of the heal (states {states[heal:heal + 2]})"
        )
    status = "FAIL" if failures else "ok"
    safe_epochs = sum(1 for s in states if s == "safe")
    print(f"[{status}] partition drill: node0 cut off epochs "
          f"{start}-{heal - 1}, {safe_epochs} safe epochs, "
          f"max cap sum {run.max_cap_sum_w():.1f} W of "
          f"{config.budget_w:.0f} W, "
          f"{run.transport_stats.dropped} envelopes dropped")
    for failure in failures[:10]:
        print(f"  {failure}")
    return 1 if failures else 0


def run_crash_drill(seed: int, artifact_dir: str) -> int:
    """Node crash-and-restart must recover through the lease ladder.

    Runs the ``node-restart`` scenario (node0 down epochs 4–6, reboot
    at 7) and checks the restart protocol end to end: silence while
    down, cap-sum at or under budget at *every* epoch including the
    crash and rejoin boundaries, and a climb back to GRANTED above the
    floor within ``ttl + 2`` epochs of the reboot.  On failure the
    write-ahead journal and the cluster trace are dumped under
    ``artifact_dir`` for post-mortem (CI uploads them as artifacts).
    """
    import json
    import os

    from repro.cluster import ClusterSim
    from repro.experiments.cluster_exp import default_cluster_config
    from repro.faults import get_crash_scenario

    config = default_cluster_config(
        n_nodes=3, crash_faults="node-restart", seed=seed
    )
    sim = ClusterSim(config)
    run = sim.run(140.0)
    ttl = config.lease_ttl_epochs
    scenario = get_crash_scenario("node-restart")
    window = scenario.node_restarts[0]
    down = range(window.crash_epoch, window.restart_epoch)
    reboot = window.restart_epoch
    floor = config.node("node0").min_cap_w
    failures = []
    for epoch, grant in enumerate(run.grants):
        total = grant.total_w + sum(
            w for n, w in grant.reserved_w.items() if n not in grant.caps_w
        )
        if total > config.budget_w + 1e-6:
            failures.append(
                f"cap-sum {total:.3f} W over the {config.budget_w:.0f} W "
                f"budget at epoch {epoch}"
            )
    for epoch in down:
        if "node0" in run.reports[epoch]:
            failures.append(f"down node0 filed a report at epoch {epoch}")
    states = [st.get("node0") for st in run.lease_states]
    granted = [
        epoch
        for epoch in range(reboot, min(reboot + ttl + 2, len(states)))
        if states[epoch] == "granted"
        and run.grants[epoch].caps_w.get("node0", 0.0) > floor
    ]
    if not granted:
        failures.append(
            f"restarted node0 did not reach GRANTED above its floor "
            f"within ttl+2 epochs of the reboot "
            f"(states {states[reboot:reboot + ttl + 2]})"
        )
    if run.node_restarts != [(reboot, "node0")]:
        failures.append(
            f"expected one node0 restart at epoch {reboot}, "
            f"got {run.node_restarts}"
        )
    if failures:
        os.makedirs(artifact_dir, exist_ok=True)
        journal_path = os.path.join(artifact_dir, "crash_drill_journal.jsonl")
        trace_path = os.path.join(artifact_dir, "crash_drill_trace.json")
        run.journal.dump(journal_path)
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(run.trace.to_jsonable(), handle, sort_keys=True)
        print(f"  artifacts: {journal_path}, {trace_path}")
    status = "FAIL" if failures else "ok"
    print(f"[{status}] crash drill: node0 down epochs {down.start}-"
          f"{down.stop - 1}, rebooted at {reboot}, "
          f"granted again at {granted[:1] or 'never'}, "
          f"max cap sum {run.max_cap_sum_w():.1f} W of "
          f"{config.budget_w:.0f} W, "
          f"{len(run.journal.entries)} journal entries")
    for failure in failures[:10]:
        print(f"  {failure}")
    return 1 if failures else 0


def run_fleet_drill(seed: int) -> int:
    """A 1,024-node diurnal fleet day with one rack partitioned.

    4 rows x 16 racks x 16 nodes under an oversubscribed budget at
    4–10 % activation; ``row1/rack3`` loses its arbiter links for
    epochs 2–4.  Checks the fleet acceptance invariants: cap-sum at or
    under budget every epoch, the partition contained to exactly its
    own subtree, and full recovery by the final epoch.
    """
    import dataclasses

    from repro.cluster import run_cluster
    from repro.experiments.fleet_exp import fleet_config, rack_partition
    from repro.fleet import DiurnalSchedule

    schedule = DiurnalSchedule(
        period_epochs=8,
        base_active_fraction=0.04,
        peak_active_fraction=0.10,
        row_phase_epochs=2,
    )
    base = fleet_config(
        4, 16, 16, schedule=schedule, epoch_ticks=1, seed=seed
    )
    rack = "row1/rack3"
    start, end = 2, 5
    config = dataclasses.replace(
        base, transport=rack_partition(base.topology, rack, start, end)
    )
    run = run_cluster(config, schedule.period_epochs * config.epoch_s)
    inside = {
        name for name in (spec.name for spec in config.nodes)
        if name.startswith(rack)
    }
    failures = []
    for epoch, grant in enumerate(run.grants):
        total = grant.total_w + sum(
            w for n, w in grant.reserved_w.items() if n not in grant.caps_w
        )
        if total > config.budget_w + 1e-6:
            failures.append(
                f"fleet cap-sum {total:.3f} W over the "
                f"{config.budget_w:.0f} W budget at epoch {epoch}"
            )
    ladder = set()
    for states in run.lease_states:
        for name, state in states.items():
            if name in inside:
                if state != "granted":
                    ladder.add(state)
            elif state != "granted":
                failures.append(
                    f"partition leaked: {name} outside {rack} "
                    f"reached {state}"
                )
    for grant in run.grants:
        leaked = set(grant.degraded) - inside
        if leaked:
            failures.append(
                f"demand-blind grants outside the partitioned rack: "
                f"{sorted(leaked)[:4]}"
            )
    if not ladder:
        failures.append(
            f"partitioned rack {rack} never left GRANTED: the "
            f"partition had no effect"
        )
    final = run.lease_states[-1]
    unhealed = sorted(n for n, s in final.items() if s != "granted")
    if unhealed:
        failures.append(
            f"{len(unhealed)} leases not GRANTED at the final epoch: "
            f"{unhealed[:4]}"
        )
    filled = sum(g.fleet_stats.get("racks", 0) for g in run.grants)
    status = "FAIL" if failures else "ok"
    idle = sum(len(s) for s in run.idle_sets)
    print(f"[{status}] fleet drill: {len(config.nodes)} nodes, "
          f"rack {rack} cut off epochs {start}-{end - 1} "
          f"(ladder: {','.join(sorted(ladder)) or 'none'}), "
          f"max cap sum {run.max_cap_sum_w():.1f} W of "
          f"{config.budget_w:.0f} W, "
          f"{filled} rack water-fills, "
          f"{idle} idle node-epochs skipped")
    for failure in failures[:10]:
        print(f"  {failure}")
    return 1 if failures else 0


def run_brownout_drill(seed: int) -> int:
    """Liars must starve, honest nodes must not, and sustained
    infeasibility must walk the brownout ladder — and back.

    Leg one runs the ``liar-storm`` telemetry scenario (node0 inflating
    3x, node1's sensor stuck, 2 % background garbage) against the same
    cluster with honest telemetry and checks the acceptance bounds:

    * the cap-sum invariant holds at every epoch of the storm;
    * each liar is quarantined within 2 epochs of its first detected
      violation (trust decay 0.5 per violating epoch against the 0.3
      threshold), and detection itself lands within ``ttl + 2`` epochs
      of the fault's onset (a stuck payload only goes stale once it is
      older than the lease TTL);
    * every honest node keeps at least 95 % of the mean cap it earns
      in the corruption-free run — a liar can redirect at most 5 % of
      an honest node's budget, and only until trust decay catches it.

    Leg two drives the facility ladder with a reservation storm: three
    nodes join over two consecutive epochs while a partitioned node's
    lease still reserves its old cap, so the committed load (floors
    plus reservations) exceeds the budget two epochs running.  The
    ladder must step up to BROWNOUT1, never skip levels, keep the
    cap-sum invariant through the overload, and return to NORMAL after
    the hysteresis run of calm epochs.
    """
    from repro.cluster import ClusterConfig, NodeSpec, run_cluster
    from repro.experiments.cluster_exp import default_cluster_config

    failures = []

    # -- leg one: the liar storm vs the honest baseline ------------------------
    storm_cfg = default_cluster_config(
        n_nodes=4, telemetry="liar-storm", seed=seed
    )
    storm = run_cluster(storm_cfg, 140.0)
    clean = run_cluster(
        default_cluster_config(n_nodes=4, seed=seed), 140.0
    )
    for epoch, grant in enumerate(storm.grants):
        total = grant.total_w + sum(
            w for n, w in grant.reserved_w.items() if n not in grant.caps_w
        )
        if total > storm_cfg.budget_w + 1e-6:
            failures.append(
                f"cap-sum {total:.3f} W over the "
                f"{storm_cfg.budget_w:.0f} W budget at storm epoch {epoch}"
            )
    scenario = storm_cfg.telemetry_scenario()
    assert scenario is not None
    ttl = storm_cfg.lease_ttl_epochs
    liars = scenario.node_names()
    for liar in liars:
        onset = min(
            f.start_epoch for f in scenario.faults if f.node == liar
        )
        first_violation = next(
            (e for e, g in enumerate(storm.grants)
             if liar in g.trust_violations), None
        )
        first_quarantine = next(
            (e for e, g in enumerate(storm.grants)
             if liar in g.quarantined), None
        )
        if first_violation is None:
            failures.append(f"liar {liar} was never detected")
        elif first_violation > onset + ttl + 2:
            failures.append(
                f"liar {liar} detected only at epoch {first_violation}, "
                f"more than ttl+2 epochs after its onset at {onset}"
            )
        elif first_quarantine is None:
            failures.append(f"liar {liar} was never quarantined")
        elif first_quarantine > first_violation + 2:
            failures.append(
                f"liar {liar} quarantined at epoch {first_quarantine}, "
                f"more than 2 epochs after detection at {first_violation}"
            )
    honest = [
        spec.name for spec in storm_cfg.nodes if spec.name not in liars
    ]
    settle = 6  # both liars are quarantined by here (checked above)
    for name in honest:
        storm_caps = [
            g.caps_w[name] for g in storm.grants[settle:]
            if name in g.caps_w
        ]
        clean_caps = [
            g.caps_w[name] for g in clean.grants[settle:]
            if name in g.caps_w
        ]
        storm_mean = sum(storm_caps) / len(storm_caps)
        clean_mean = sum(clean_caps) / len(clean_caps)
        if storm_mean < 0.95 * clean_mean:
            failures.append(
                f"honest {name} kept only {storm_mean:.1f} W of its "
                f"liar-free {clean_mean:.1f} W mean cap (> 5% stolen)"
            )
    quarantined_epochs = sum(len(g.quarantined) for g in storm.grants)
    flagged = sum(len(g.trust_violations) for g in storm.grants)

    # -- leg two: the reservation storm must walk the ladder -------------------
    apps = (
        AppSpec("leela", shares=50.0),
        AppSpec("cactusBSSN", shares=50.0),
        AppSpec("leela", shares=50.0),
        AppSpec("cactusBSSN", shares=50.0),
        AppSpec("leela", shares=50.0),
        AppSpec("cactusBSSN", shares=50.0),
    )
    # node0 (partitioned epochs 4-8) holds a ~45 W reservation while
    # node3/node4 join at epoch 4 and node5 at epoch 5: committed load
    # tops the budget two epochs running, then drains as the shave and
    # the lease expiry release the reservation.
    joins = {"node3": 40.0, "node4": 40.0, "node5": 50.0}
    ladder_cfg = ClusterConfig(
        budget_w=90.0,
        nodes=tuple(
            NodeSpec(
                name=f"node{i}",
                apps=apps,
                shares=2.0 if i == 0 else 1.0,
                min_cap_w=14.0,
                joins_at_s=joins.get(f"node{i}", 0.0),
            )
            for i in range(6)
        ),
        seed=seed,
        transport="node0-partition",
    )
    ladder = run_cluster(ladder_cfg, 140.0)
    levels = [g.brownout for g in ladder.grants]
    for epoch, grant in enumerate(ladder.grants):
        total = grant.total_w + sum(
            w for n, w in grant.reserved_w.items() if n not in grant.caps_w
        )
        if total > ladder_cfg.budget_w + 1e-6:
            failures.append(
                f"cap-sum {total:.3f} W over the "
                f"{ladder_cfg.budget_w:.0f} W budget at ladder epoch {epoch}"
            )
    if max(levels) < 1:
        failures.append(
            "the reservation storm never drove the brownout ladder "
            f"above NORMAL (levels {levels})"
        )
    if any(b - a > 1 for a, b in zip(levels, levels[1:])):
        failures.append(f"the ladder skipped a level (levels {levels})")
    if levels[-1] != 0:
        failures.append(
            f"the ladder did not return to NORMAL by the final epoch "
            f"(levels {levels})"
        )

    status = "FAIL" if failures else "ok"
    print(f"[{status}] brownout drill: liars {','.join(liars)} "
          f"({flagged} reports flagged, {quarantined_epochs} quarantined "
          f"node-epochs), max storm cap sum "
          f"{storm.max_cap_sum_w():.1f} W of "
          f"{storm_cfg.budget_w:.0f} W; ladder peaked at level "
          f"{max(levels)} and ended at {levels[-1]}")
    for failure in failures[:10]:
        print(f"  {failure}")
    return 1 if failures else 0


def run_sanitizer_drill(seed: int) -> int:
    """The determinism sanitizer must agree across every stepping mode.

    Runs the same 3-node cluster three ways — serial scalar engine,
    stacked array engine, and fork workers — with per-epoch state
    digests on, and requires all three recordings to be identical.  On
    divergence the sanitizer names the first epoch, node, and field
    with both values, which is the whole point: a parallelism or
    vectorisation bug surfaces as a readable diff, not a byte mismatch.
    """
    import dataclasses

    from repro.analysis.sanitizer import compare_all
    from repro.cluster import run_cluster
    from repro.experiments.cluster_exp import default_cluster_config

    base = default_cluster_config(n_nodes=3, seed=seed)
    modes = (
        ("scalar", None),  # serial reference loop
        ("array", 1),      # stacked struct-of-arrays batch
        ("array", 2),      # fork workers
    )
    digests = []
    for engine, jobs in modes:
        config = dataclasses.replace(base, engine=engine)
        run = run_cluster(config, 100.0, jobs=jobs, sanitize=True)
        assert run.sanitizer is not None
        digests.append(run.sanitizer)
    divergence = compare_all(digests)
    status = "FAIL" if divergence else "ok"
    rows = len(digests[0])
    print(f"[{status}] sanitizer drill: {len(modes)} stepping modes, "
          f"{rows} node-epoch digests each, "
          f"digest {digests[0].digest()[:12]}")
    if divergence is not None:
        print(f"  {divergence.describe()}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=60.0,
                        help="simulated seconds per platform (default 60)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario", default="full-storm")
    parser.add_argument("--skip-bench", action="store_true",
                        help="skip the ticks/sec regression check")
    parser.add_argument("--artifact-dir", default="chaos-artifacts",
                        help="where failing drills dump their journal "
                             "and trace (default chaos-artifacts/)")
    parser.add_argument("--check", action="store_true",
                        help="CI mode: enforce every gate, including the "
                             "bench throughput floors (single-socket, "
                             "cluster, and fleet ticks/sec)")
    args = parser.parse_args(argv)
    if args.check and args.skip_bench:
        parser.error("--check enforces the bench gate; drop --skip-bench")
    rc = 0
    for platform, limit_w in PLATFORM_LIMITS.items():
        try:
            rc |= run_one(
                platform, limit_w, args.scenario, args.seed, args.duration
            )
        except FaultConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    rc |= run_partition_check(args.seed)
    rc |= run_crash_drill(args.seed, args.artifact_dir)
    rc |= run_fleet_drill(args.seed)
    rc |= run_brownout_drill(args.seed)
    rc |= run_sanitizer_drill(args.seed)
    if not args.skip_bench:
        # guard the simulator's throughput alongside its safety: fail
        # when ticks/sec regresses >30% against the committed baseline.
        import bench

        rc |= bench.check_regression()
    return rc


if __name__ == "__main__":
    sys.exit(main())
