"""Content-addressed on-disk cache for steady-state experiment results.

The evaluation is dozens of independent :func:`repro.experiments.runner.
run_steady` calls, each a pure function of its frozen
:class:`~repro.config.ExperimentConfig` plus the run durations.  The
cache exploits that purity: the key is a stable SHA-256 over the
config's full field set, ``duration_s``/``warmup_s``, and a
code-version salt, and the value is the :class:`~repro.experiments.
runner.SteadyRunResult` serialized to JSON.  Floats survive the JSON
round trip exactly (``repr``-based shortest round-trip encoding), so a
cache hit returns a result equal to what the simulator would have
produced.

Invalidation rules:

* any config field change (platform, policy, limit, apps, shares,
  priorities, tick, interval, fault scenario/seed, ...) changes the key;
* changing ``duration_s`` or ``warmup_s`` changes the key;
* simulator-semantics changes must bump :data:`CACHE_VERSION`, which
  salts every key (stale entries become unreachable, not wrong);
* unreadable or schema-mismatched entries are treated as misses and
  deleted.

Environment overrides: ``REPRO_CACHE_DIR`` relocates the cache root
(default ``~/.cache/repro-power``); ``REPRO_NO_CACHE=1`` disables the
cache entirely (same effect as the CLI's ``--no-cache``).
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.config import AppSpec, ExperimentConfig
from repro.core.types import Priority
from repro.experiments.runner import SteadyAppResult, SteadyRunResult

if TYPE_CHECKING:
    from repro.cluster.config import ClusterConfig
    from repro.experiments.cluster_exp import ClusterRunResult

#: code-version salt folded into every cache key.  Bump whenever a
#: change alters simulator *outputs* (models, policies, aggregation);
#: pure refactors and speedups keep it.
#:
#: v2: cluster experiments joined the cache (their keys carry a
#: ``kind`` discriminator so single-socket and cluster entries can
#: never collide).
#:
#: v3: cluster runs gained the control-plane transport and cap leases
#: (new ``ClusterConfig`` fields, new result fields) — cluster outputs
#: changed shape, so v2 entries must not satisfy v3 lookups.
#:
#: v4: cluster runs gained the crash-recovery journal (``crash_faults``
#: config field, restart/recovery result fields, new trace series) —
#: v3 cluster entries predate the crash counters and must not satisfy
#: v4 lookups.
#:
#: v5: cluster runs gained telemetry validation, trust scoring, and
#: the brownout ladder (``telemetry`` config field, trust/quarantine/
#: brownout result counters, validator clamping in the grant path) —
#: v4 cluster entries predate validation and must not satisfy v5
#: lookups.
#:
#: v6: one exact water-fill everywhere — the daemon's share policies
#: and every arbitration level use the breakpoint sweep instead of
#: bisection (fills differ in the last bits), node claims are no longer
#: quantized to 0.5 W, and the fleet result drops its rack-reuse
#: counters — v5 entries hold grants the v6 arbiter no longer makes.
CACHE_VERSION = 6

#: default cache root (overridden by ``REPRO_CACHE_DIR``).
DEFAULT_CACHE_DIR = "~/.cache/repro-power"


def cache_disabled_by_env() -> bool:
    """True when ``REPRO_NO_CACHE`` is set to a truthy value."""
    return os.environ.get("REPRO_NO_CACHE", "") not in ("", "0", "false")


def _jsonable(obj: object) -> object:
    if isinstance(obj, enum.Enum):
        return obj.name
    raise TypeError(f"not JSON-serializable: {obj!r}")


def config_to_jsonable(config: ExperimentConfig) -> dict[str, Any]:
    """JSON form of a config (enums by name), minus the engine.

    The engine selector is deliberately excluded from the cache
    identity: the scalar and array engines are bit-identical by
    contract (the equivalence suite enforces it), so a result computed
    by either must hit for both — and keys stay byte-compatible with
    pre-engine cache entries, which is why ``CACHE_VERSION`` did not
    bump when the field appeared.
    """
    raw = asdict(config)
    raw.pop("engine", None)
    for app in raw["apps"]:
        app["priority"] = app["priority"].name
    return raw


def config_from_jsonable(data: dict[str, Any]) -> ExperimentConfig:
    apps = tuple(
        AppSpec(
            benchmark=a["benchmark"],
            shares=a["shares"],
            priority=Priority[a["priority"]],
            steady=a["steady"],
        )
        for a in data["apps"]
    )
    return ExperimentConfig(**{**data, "apps": apps})


def result_to_jsonable(result: SteadyRunResult) -> dict[str, Any]:
    return {
        "config": config_to_jsonable(result.config),
        "mean_package_power_w": result.mean_package_power_w,
        "apps": [asdict(app) for app in result.apps],
    }


def result_from_jsonable(data: dict[str, Any]) -> SteadyRunResult:
    return SteadyRunResult(
        config=config_from_jsonable(data["config"]),
        mean_package_power_w=data["mean_package_power_w"],
        apps=tuple(SteadyAppResult(**app) for app in data["apps"]),
    )


def cache_key(
    config: ExperimentConfig, duration_s: float, warmup_s: float
) -> str:
    """Stable content hash of one run's complete inputs."""
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "config": config_to_jsonable(config),
            "duration_s": duration_s,
            "warmup_s": warmup_s,
        },
        sort_keys=True,
        default=_jsonable,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def cluster_cache_key(
    config: "ClusterConfig", duration_s: float, warmup_s: float
) -> str:
    """Stable content hash of one cluster run's complete inputs.

    The ``kind`` discriminator keeps cluster keys disjoint from
    single-socket keys even if their JSON forms ever overlapped.
    """
    # local import: repro.cluster reaches back into this package via
    # the stepper's use of experiments.parallel
    from repro.cluster.config import cluster_config_to_jsonable

    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "kind": "cluster",
            "config": cluster_config_to_jsonable(config),
            "duration_s": duration_s,
            "warmup_s": warmup_s,
        },
        sort_keys=True,
        default=_jsonable,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache handle (report footer)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores


class ResultCache:
    """On-disk ``run_steady`` result cache, keyed by content hash."""

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.root = Path(root).expanduser()
        self.stats = CacheStats()

    @classmethod
    def from_env(cls, *, enabled: bool = True) -> "ResultCache | None":
        """Build the default cache, or None when disabled by caller/env."""
        if not enabled or cache_disabled_by_env():
            return None
        return cls()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(
        self,
        config: ExperimentConfig,
        duration_s: float,
        warmup_s: float,
    ) -> SteadyRunResult | None:
        path = self._path(cache_key(config, duration_s, warmup_s))
        try:
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("schema") != CACHE_VERSION:
                raise ValueError("schema mismatch")
            result = result_from_jsonable(data["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # unreadable/corrupt entry: drop it and treat as a miss
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(
        self,
        config: ExperimentConfig,
        duration_s: float,
        warmup_s: float,
        result: SteadyRunResult,
    ) -> None:
        path = self._path(cache_key(config, duration_s, warmup_s))
        payload = json.dumps(
            {"schema": CACHE_VERSION, "result": result_to_jsonable(result)}
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # atomic publish so concurrent workers never see torn JSON
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            # a read-only or full cache dir degrades to no caching
            return
        self.stats.stores += 1

    # -- cluster experiments ------------------------------------------------------
    #
    # Cluster runs are pure functions of their ClusterConfig plus
    # durations, exactly like the single-socket runs above, so they get
    # the same hit/miss/store accounting on the same handle (the full
    # report's footer counts both).

    def get_cluster(
        self,
        config: "ClusterConfig",
        duration_s: float,
        warmup_s: float,
    ) -> "ClusterRunResult | None":
        from repro.experiments.cluster_exp import cluster_result_from_jsonable

        path = self._path(cluster_cache_key(config, duration_s, warmup_s))
        try:
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("schema") != CACHE_VERSION:
                raise ValueError("schema mismatch")
            if data.get("kind") != "cluster":
                raise ValueError("kind mismatch")
            result = cluster_result_from_jsonable(data["result"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put_cluster(
        self,
        config: "ClusterConfig",
        duration_s: float,
        warmup_s: float,
        result: "ClusterRunResult",
    ) -> None:
        from repro.experiments.cluster_exp import cluster_result_to_jsonable

        path = self._path(cluster_cache_key(config, duration_s, warmup_s))
        payload = json.dumps(
            {
                "schema": CACHE_VERSION,
                "kind": "cluster",
                "result": cluster_result_to_jsonable(result),
            }
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            return
        self.stats.stores += 1
