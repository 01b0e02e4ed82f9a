#!/usr/bin/env python3
"""Layered benchmark of the power-delivery simulator and control plane.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload sparse_fleet --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` alternates untraced and traced rounds of the same work
and reports the per-layer split (see ``perfbench/README.md``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit, the ``sim_digest`` and a fixed
calibration-loop time.  Any failed correctness check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: fresh processes timing imports + workload set-up for ``setup_s``.
SETUP_REPS = 5

#: first epochs left out of the RSS slope fit (stack builds, imports).
RSS_WARMUP_EPOCHS = 2

#: an untraced run repeats its round at least this often: each epoch's
#: time is its minimum over the rounds.
MIN_ROUNDS = 3


def round_count(seconds: float, round_s: float) -> int:
    """Rounds of an untraced run: enough to fill ``seconds`` on the
    reference machine.  The count depends only on the arguments, so the
    per-epoch minimum is taken over the same number of rounds on every
    run and every machine."""
    return max(MIN_ROUNDS, round(seconds / round_s))

#: environment knobs of the program that would change what is measured.
_PROGRAM_ENV = ("REPRO_SIM_ENGINE", "REPRO_SANITIZE", "REPRO_CACHE_DIR")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("socket", "busy_fleet", "sparse_fleet",
                                 "faulted_fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("recovery-tail",),
                        help="break an invariant on purpose (tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def calibrate() -> dict[str, float]:
    """Fixed pure-Python and numpy loops (median of 3, ms): the machine's
    speed, printed beside each run so runs on two machines compare."""
    import numpy as np

    def python_loop() -> float:
        acc = 0
        for i in range(300_000):
            acc += (i * i) % 7
        return float(acc)

    data = np.arange(200_000, dtype=np.float64)

    def numpy_loop() -> float:
        acc = 0.0
        for _ in range(40):
            acc += float(np.add.accumulate(np.sqrt(data + acc))[-1])
        return acc

    out = {}
    for name, loop in (("python_ms", python_loop), ("numpy_ms", numpy_loop)):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            loop()
            times.append(1e3 * (time.perf_counter() - start))
        out[name] = statistics.median(times)
    return out


def measure_setup_s(args: argparse.Namespace) -> float:
    """Median wall time of a fresh process importing the program and
    building the workload up to its first timed tick or epoch."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def rss_slope_kb(marks: list[tuple[int, int]]) -> float:
    """Least-squares slope of peak RSS over epochs, after warm-up."""
    points = marks[RSS_WARMUP_EPOCHS:]
    if len(points) < 2:
        return 0.0
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


class Runner:
    def __init__(self, args: argparse.Namespace):
        from workloads import EpochClock, make_workload

        self.args = args
        self.workload = make_workload(args.workload, args.seed, args.inject)
        self.clock = EpochClock()
        self.results = []
        self.digests: set[str] = set()

    def _keep_going(self, started: float) -> bool:
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(self.results)
        return elapsed + per_round <= self.args.seconds

    def untraced(self) -> None:
        rounds = round_count(self.args.seconds, self.workload.round_s)
        self.clock.install()
        try:
            for _ in range(rounds):
                self.results.append(self.workload.run_round(self.clock))
        finally:
            self.clock.uninstall()

    def traced(self):
        """Alternate an untraced round and its traced twin."""
        from tracing import Instrumentation, SpanStore

        store = SpanStore()
        traced_rounds = []
        untraced_s = traced_s = 0.0
        started = time.perf_counter()
        while True:
            self.clock.install()
            try:
                start = time.perf_counter()
                self.results.append(self.workload.run_round(self.clock))
                untraced_s += time.perf_counter() - start
            finally:
                self.clock.uninstall()
            store.run_id = len(traced_rounds)
            with Instrumentation(store):
                start = time.perf_counter()
                with store.span("bench.harness"):
                    traced_rounds.append(
                        self.workload.run_round(None, store.span)
                    )
                traced_s += time.perf_counter() - start
            if not self._keep_going(started):
                break
        return store, traced_rounds, untraced_s, traced_s

    def checks(self, rounds) -> tuple[int, int]:
        attempted = failed = 0
        for result in rounds:
            for name, passed in result.checks:
                attempted += 1
                if not passed:
                    failed += 1
                    print(f"check FAILED: {name}")
        digests = {result.digest for result in rounds}
        attempted += 1
        if len(digests) != 1:
            failed += 1
            print(f"check FAILED: rounds disagree on sim_digest: "
                  f"{sorted(digests)}")
        self.digests = digests
        return attempted, failed


def best_epochs_ms(results) -> list[float]:
    """Each epoch's host ms, minimum over the rounds.

    Rounds of one seed run identical work, and other processes on the
    machine only ever add time to an epoch, so the per-epoch minimum is
    the epoch's own cost with most of that interference filtered out.
    """
    lengths = {len(r.epoch_ms) for r in results}
    if len(lengths) != 1:
        raise RuntimeError(f"rounds timed different epoch counts: {lengths}")
    return [min(times) for times in zip(*(r.epoch_ms for r in results))]


def end_to_end(runner: Runner, setup_s: float) -> dict[str, tuple[float, str]]:
    from workloads import maxrss_kb

    results = runner.results
    best = best_epochs_ms(results)
    warmup = set(results[0].warmup)
    timed = [ms for i, ms in enumerate(best) if i not in warmup]
    return {
        "setup_s": (setup_s, "s"),
        "node_ticks_per_s": (results[0].node_ticks / (1e-3 * sum(best)),
                             "1/s"),
        "epoch_ms_p50": (statistics.median(timed), "ms"),
        "epoch_ms_p90": (_percentile(timed, 90), "ms"),
        "peak_rss_mb": (maxrss_kb() / 1024.0, "MB"),
    }


def workload_extras(runner: Runner) -> dict[str, tuple[float, str]]:
    """The end-to-end figures only some workloads have."""
    results = runner.results
    extras: dict[str, tuple[float, str]] = {}
    recoveries = [r.recovery_s for r in results if r.recovery_s is not None]
    if recoveries:
        extras["recovery_s"] = (statistics.median(recoveries), "s")
    if results[0].rss_marks and runner.args.workload != "socket":
        extras["rss_growth_kb_per_epoch"] = (
            rss_slope_kb(results[0].rss_marks), "KB"
        )
    return extras


def per_layer(store, traced_rounds, untraced_s: float, traced_s: float,
              extras: dict[str, tuple[float, str]]) -> dict[str, tuple[float, str]]:
    from tracing import CALL_METRICS, SELF_METRICS

    red = store.reduce()
    n = len(traced_rounds)
    metrics: dict[str, tuple[float, str]] = {}
    for span, metric in SELF_METRICS.items():
        metrics[metric] = (1e3 * red.self_s.get(span, 0.0) / n, "ms")
    for metric, span in CALL_METRICS.items():
        metrics[metric] = (red.calls.get(span, 0) / n, "count")
    counts = store.counts
    scalar = counts.get("sim.chip.scalar_ticks", 0.0)
    array_ticks = counts.get("sim.array_chip_ticks", 0.0)
    metrics["sim.chip.scalar_ticks"] = (scalar / n, "count")
    metrics["sim.chip.fallback_ticks"] = (
        counts.get("sim.chip.fallback_ticks", 0.0) / n, "count")
    metrics["sim.array_tick_share"] = (
        array_ticks / (array_ticks + scalar) if array_ticks + scalar else 0.0,
        "ratio",
    )
    totals: dict[str, float] = {}
    for result in traced_rounds:
        for key, value in result.counters.items():
            totals[key] = totals.get(key, 0.0) + value
    sent = totals.get("cluster.transport.sent", 0.0)
    racks = totals.get("fleet.arbiter.racks", 0.0)
    metrics["cluster.transport.delivered_frac"] = (
        totals.get("cluster.transport.delivered", 0.0) / sent if sent else 0.0,
        "ratio",
    )
    metrics["cluster.transport.stale"] = (
        totals.get("cluster.transport.stale", 0.0) / n, "count")
    metrics["cluster.trust.quarantined"] = (
        totals.get("cluster.trust.quarantined", 0.0) / n, "count")
    metrics["fleet.arbiter.rack_reuse_frac"] = (
        totals.get("fleet.arbiter.reused", 0.0) / racks if racks else 0.0,
        "ratio",
    )
    metrics["cluster.journal.entries"] = (
        totals.get("cluster.journal.entries", 0.0) / n, "count")
    metrics["cluster.journal.bytes"] = (
        totals.get("cluster.journal.bytes", 0.0) / n, "bytes")
    metrics["trace.wall_ms"] = (1e3 * red.wall_s / n, "ms")
    metrics["trace.spans"] = (red.spans / n, "count")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_s / untraced_s - 1.0), "%")
    metrics["recovery_s"] = extras.get("recovery_s", (0.0, "s"))
    metrics["rss_growth_kb_per_epoch"] = extras.get(
        "rss_growth_kb_per_epoch", (0.0, "KB"))
    return metrics


#: workload-specific names the simulated-tick rate is also printed under.
_RATE_ALIASES = {
    "socket": "socket_ticks_per_s",
    "busy_fleet": "busy_node_ticks_per_s",
}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    for key in _PROGRAM_ENV:
        os.environ.pop(key, None)
    os.environ["REPRO_NO_CACHE"] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    if args.setup_probe:
        from workloads import make_workload

        make_workload(args.workload, args.seed).setup()
        return 0

    setup_s = measure_setup_s(args)
    runner = Runner(args)
    store = None
    if args.trace:
        store, traced_rounds, untraced_s, traced_s = runner.traced()
        attempted, failed = runner.checks(runner.results + traced_rounds)
    else:
        runner.untraced()
        attempted, failed = runner.checks(runner.results)
    calib = calibrate()
    extras = workload_extras(runner)
    e2e = end_to_end(runner, setup_s)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={len(runner.results)}")
    for digest in sorted(runner.digests):
        print(f"sim_digest {args.workload} seed={args.seed} {digest}")
    print(f"calibration python_ms={calib['python_ms']:.3f} "
          f"numpy_ms={calib['numpy_ms']:.3f}")
    shown = dict(e2e)
    if args.workload in _RATE_ALIASES:
        shown[_RATE_ALIASES[args.workload]] = e2e["node_ticks_per_s"]
    shown.update(extras)
    shown["failed_frac"] = (failed / attempted, "ratio")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")
    if args.trace:
        metrics = per_layer(store, traced_rounds, untraced_s, traced_s,
                            extras)
        out = BENCH_DIR / "out" / f"spans-{args.workload}.npz"
        store.write(out, {"workload": args.workload, "seed": args.seed,
                          "rounds": len(traced_rounds)})
        print(f"spans {len(store)} written to {out.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value:.6g} {unit}")
    else:
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
