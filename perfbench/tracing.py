"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :func:`install`
replaces the public entry points of each layer — at class level, or in
the module whose code looks the name up — with wrappers that append one
span (name, start, end, parent, run id) to an in-memory
:class:`SpanStore`.  Nothing in ``src/`` knows it is being traced.

A layer's *self time* is its spans' durations minus the time covered by
their child spans, so the self times of every span name under a root
span sum exactly to the root's wall time.  :data:`SELF_METRICS` maps
span names to the per-layer metric their self time lands in.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


class SpanStore:
    """Spans kept in flat typed arrays: 28 bytes each."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        #: counters recorded at span boundaries (e.g. ticks per call).
        self.counts: dict[str, float] = {}
        #: open-span indices; -1 marks "no parent".
        self._stack: list[int] = [-1]
        #: one-element box so wrappers read the current run id cheaply.
        self._run_box = [0]

    def __len__(self) -> int:
        return len(self.name)

    @property
    def run_id(self) -> int:
        return self._run_box[0]

    @run_id.setter
    def run_id(self, value: int) -> None:
        self._run_box[0] = value

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        nid = self.intern(name)
        name_arr, parent_arr, run_arr = self.name, self.parent, self.run
        start_arr, end_arr = self.start, self.end
        stack, run_box = self._stack, self._run_box
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(name_arr)
            name_arr.append(nid)
            parent_arr.append(stack[-1])
            run_arr.append(run_box[0])
            end_arr.append(0.0)
            stack.append(idx)
            start_arr.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_arr[idx] = clock()
                stack.pop()

        return traced

    def span(self, name: str) -> "_Span":
        """A context-manager span (the harness's own phases)."""
        return _Span(self, self.intern(name))

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- reduction -----------------------------------------------------------

    def reduce(self) -> "Reduction":
        """Per-name calls and self time, plus the root spans' wall time."""
        import numpy as np

        n = len(self.name)
        ids = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_s = dur - child
        k = len(self.names)
        per_self = np.bincount(ids, weights=self_s, minlength=k)
        per_calls = np.bincount(ids, minlength=k)
        return Reduction(
            self_s={nm: float(per_self[i]) for i, nm in enumerate(self.names)},
            calls={nm: int(per_calls[i]) for i, nm in enumerate(self.names)},
            wall_s=float(dur[~nested].sum()),
            spans=n,
        )

    def write(self, path: Path, meta: dict) -> None:
        """Write every span out (numpy ``.npz``; names as JSON)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        n = len(self.name)
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int64, count=n),
            run=np.frombuffer(self.run, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
            names=np.array(json.dumps(self.names)),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )


class _Span:
    def __init__(self, store: SpanStore, nid: int):
        self._store = store
        self._nid = nid
        self._idx = -1

    def __enter__(self) -> "_Span":
        store = self._store
        self._idx = len(store.name)
        store.name.append(self._nid)
        store.parent.append(store._stack[-1])
        store.run.append(store._run_box[0])
        store.end.append(0.0)
        store._stack.append(self._idx)
        store.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc: object) -> None:
        self._store.end[self._idx] = time.perf_counter()
        self._store._stack.pop()


@dataclass
class Reduction:
    self_s: dict[str, float]
    calls: dict[str, int]
    wall_s: float
    spans: int


# -- the instrumentation table ---------------------------------------------------
#
# (module, attribute path, span name).  Methods are wrapped on the class
# that defines them, so objects built later — a crash-redo arbiter, a
# rebooted node's stack — are covered.  Functions are wrapped in the
# module whose code looks them up.

TARGETS: tuple[tuple[str, str, str], ...] = (
    # sim
    ("repro.sim.engine", "SimEngine.run_ticks", "sim.engine"),
    ("repro.cluster.stepper", "run_lockstep", "sim.engine"),
    ("repro.sim.soa", "advance_chips", "sim.soa.advance"),
    ("repro.sim.soa", "_replay_rapl", "sim.soa.rapl_replay"),
    ("repro.sim.chip", "Chip.advance_ticks", "sim.chip.scalar"),
    # hw
    ("repro.hw.rapl", "RaplLimiter.observe", "hw.rapl.observe"),
    ("repro.hw.rapl", "RaplLimiter.clip", "hw.rapl.clip"),
    ("repro.hw.msr", "MSRFile.write", "hw.msr.write"),
    # core / telemetry
    ("repro.core.daemon", "PowerDaemon.iteration", "core.daemon.iteration"),
    ("repro.telemetry.turbostat", "Turbostat.sample",
     "telemetry.turbostat.sample"),
    ("repro.core.daemon", "select_pstate_levels", "core.pstate_select"),
    ("repro.core.frequency_shares", "refill_pool", "core.minfund.daemon"),
    ("repro.core.performance_shares", "refill_pool", "core.minfund.daemon"),
    ("repro.core.performance_shares", "proportional_targets",
     "core.minfund.daemon"),
    ("repro.core.power_shares", "refill_pool", "core.minfund.daemon"),
    ("repro.core.power_shares", "proportional_targets",
     "core.minfund.daemon"),
    ("repro.core.priority", "distribute_min_funding", "core.minfund.daemon"),
    # cluster.stepper / cluster.node
    ("repro.cluster.stepper", "SerialNodeStepper.step",
     "cluster.stepper.step"),
    ("repro.cluster.stepper", "StackedNodeStepper.step",
     "cluster.stepper.step"),
    ("repro.cluster.node", "ClusterNode.begin_epoch", "cluster.node.begin"),
    ("repro.cluster.node", "ClusterNode.finish_epoch", "cluster.node.finish"),
    ("repro.cluster.node", "ClusterNode.idle_report", "cluster.node.idle"),
    # cluster.arbiter / fleet
    ("repro.cluster.arbiter", "ClusterArbiter.rebalance",
     "cluster.arbiter.rebalance"),
    ("repro.cluster.arbiter", "ClusterArbiter.check_invariant",
     "cluster.arbiter.invariant"),
    ("repro.cluster.arbiter", "ClusterArbiter.snapshot",
     "cluster.arbiter.snapshot"),
    ("repro.fleet.arbiter", "FleetArbiter.snapshot",
     "cluster.arbiter.snapshot"),
    ("repro.cluster.arbiter", "ClusterArbiter.restore",
     "cluster.arbiter.restore"),
    ("repro.fleet.arbiter", "FleetArbiter.restore", "cluster.arbiter.restore"),
    ("repro.fleet.arbiter", "waterfill", "fleet.waterfill"),
    ("repro.cluster.arbiter", "refill_pool", "core.minfund.arbiter"),
    ("repro.fleet.arbiter", "refill_pool", "core.minfund.arbiter"),
    # cluster.trust
    ("repro.cluster.trust", "DemandValidator.screen", "cluster.trust.screen"),
    ("repro.cluster.trust", "DemandValidator.validate",
     "cluster.trust.validate"),
    ("repro.cluster.trust", "TrustBook.observe", "cluster.trust.book"),
    ("repro.cluster.trust", "TrustBook.observe_clean", "cluster.trust.book"),
    # cluster.lease / cluster.transport
    ("repro.cluster.lease", "NodeLease.observe", "cluster.lease.observe"),
    ("repro.cluster.transport", "UnreliableTransport.send",
     "cluster.transport.send"),
    ("repro.cluster.transport", "UnreliableTransport.deliver",
     "cluster.transport.deliver"),
    # cluster.journal / cluster.trace
    ("repro.cluster.journal", "Journal.append", "cluster.journal.append"),
    ("repro.cluster.journal", "Journal.replay", "cluster.journal.replay"),
    ("repro.cluster.journal", "Journal.to_jsonl", "cluster.journal.dump"),
    ("repro.cluster.journal", "Journal.from_jsonl", "cluster.journal.load"),
    ("repro.cluster.trace", "ClusterTrace.record_epoch", "cluster.trace.record"),
    ("repro.cluster.trace", "ClusterTrace.record_control",
     "cluster.trace.record"),
    # cluster.runtime
    ("repro.cluster.runtime", "ClusterSim.run", "cluster.runtime"),
    ("repro.cluster.runtime", "recover_cluster_sim", "cluster.recovery"),
)

#: span name -> the per-layer metric its self time (ms) is reported in.
#: Every span name the tracer can record appears here exactly once, so
#: these metrics partition the traced wall time.
SELF_METRICS: dict[str, str] = {
    "bench.harness": "bench.harness.self_ms",
    "bench.setup": "bench.setup_ms",
    "sim.engine": "sim.engine.self_ms",
    "sim.soa.advance": "sim.soa.advance_ms",
    "sim.soa.rapl_replay": "sim.soa.rapl_replay_ms",
    "sim.chip.scalar": "sim.chip.scalar_ms",
    "hw.rapl.observe": "hw.rapl.observe_ms",
    "hw.rapl.clip": "hw.rapl.clip_ms",
    "hw.msr.write": "hw.msr.write_ms",
    "core.daemon.iteration": "core.daemon.iteration_ms",
    "telemetry.turbostat.sample": "telemetry.turbostat.sample_ms",
    "core.policy.redistribute": "core.policy.redistribute_ms",
    "core.pstate_select": "core.pstate_select.ms",
    "core.minfund.daemon": "core.minfund.daemon_ms",
    "cluster.stepper.step": "cluster.stepper.step_ms",
    "cluster.node.begin": "cluster.node.begin_ms",
    "cluster.node.finish": "cluster.node.finish_ms",
    "cluster.node.idle": "cluster.node.idle_ms",
    "cluster.arbiter.rebalance": "cluster.arbiter.rebalance_ms",
    "cluster.arbiter.invariant": "cluster.arbiter.invariant_ms",
    "cluster.arbiter.snapshot": "cluster.arbiter.snapshot_ms",
    "cluster.arbiter.restore": "cluster.arbiter.restore_ms",
    "fleet.waterfill": "fleet.waterfill.ms",
    "core.minfund.arbiter": "core.minfund.arbiter_ms",
    "cluster.trust.screen": "cluster.trust.screen_ms",
    "cluster.trust.validate": "cluster.trust.validate_ms",
    "cluster.trust.book": "cluster.trust.book_ms",
    "cluster.lease.observe": "cluster.lease.observe_ms",
    "cluster.transport.send": "cluster.transport.send_ms",
    "cluster.transport.deliver": "cluster.transport.deliver_ms",
    "cluster.journal.append": "cluster.journal.append_ms",
    "cluster.journal.replay": "cluster.journal.replay_ms",
    "cluster.journal.dump": "cluster.journal.dump_ms",
    "cluster.journal.load": "cluster.journal.load_ms",
    "cluster.trace.record": "cluster.trace.record_ms",
    "cluster.runtime": "cluster.runtime.self_ms",
    "cluster.recovery": "cluster.recovery.self_ms",
}

#: per-layer call-count metrics: metric -> span name.
CALL_METRICS: dict[str, str] = {
    "sim.soa.advance_calls": "sim.soa.advance",
    "hw.rapl.observe_calls": "hw.rapl.observe",
    "hw.msr.writes": "hw.msr.write",
    "core.daemon.iterations": "core.daemon.iteration",
    "cluster.node.stepped": "cluster.node.begin",
    "cluster.node.idle_reports": "cluster.node.idle",
    "cluster.trust.validate_calls": "cluster.trust.validate",
}


def _policy_targets() -> list[tuple[type, str]]:
    """Every concrete policy class defining its own ``redistribute``."""
    from repro.config import POLICY_REGISTRY

    found: list[tuple[type, str]] = []
    for cls in POLICY_REGISTRY.values():
        for klass in cls.__mro__:
            fn = klass.__dict__.get("redistribute")
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            if (klass, "redistribute") not in found:
                found.append((klass, "redistribute"))
    return found


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Instrumentation:
    """Installs span wrappers for one traced round and removes them."""

    def __init__(self, store: SpanStore):
        self.store = store
        self._saved: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, name: str,
               counter: Callable[[SpanStore, tuple, Any], None] | None = None
               ) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if counter is not None:
            fn = _counting(fn, self.store, counter)
        wrapped = self.store.wrap(fn, name)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        self._saved.append((owner, attr, raw))

    def install(self) -> None:
        counters = {
            "sim.chip.scalar": _count_scalar_ticks,
        }
        for module, path, name in TARGETS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, name, counters.get(name))
        for klass, attr in _policy_targets():
            self._patch(klass, attr, "core.policy.redistribute")
        # array ticks are counted where the batch commits them; no span
        soa = importlib.import_module("repro.sim.soa")
        raw_batch = soa._advance_batch
        store = self.store

        def counted_batch(states: list, n_ticks: int) -> int:
            committed = raw_batch(states, n_ticks)
            store.add("sim.array_chip_ticks", committed * len(states))
            return committed

        soa._advance_batch = counted_batch
        self._saved.append((soa, "_advance_batch", raw_batch))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


def _counting(fn: Callable, store: SpanStore,
              counter: Callable[[SpanStore, tuple, Any], None]) -> Callable:
    @functools.wraps(fn)
    def counted(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        counter(store, args, kwargs)
        return result

    return counted


def _count_scalar_ticks(store: SpanStore, args: tuple, kwargs: Any) -> None:
    from repro.sim.soa import chip_supports_array

    n = args[1] if len(args) > 1 else kwargs["n"]
    store.add("sim.chip.scalar_ticks", n)
    if chip_supports_array(args[0]):
        # the chip has an array path, so these ticks are the fallback:
        # a RAPL cap clipping, or a gap too short to batch
        store.add("sim.chip.fallback_ticks", n)
