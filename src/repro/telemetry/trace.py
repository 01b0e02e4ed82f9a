"""Time-series recording with the summary statistics the figures use.

The paper's box plots report median, quartiles, and 1st/99th percentiles
(Figs 2 and 3); other figures report means over the run.  A
:class:`TraceSeries` accumulates samples and produces exactly those
summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.units import percentile


@dataclass
class TraceSeries:
    """One named time-series of (time, value) samples."""

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time_s: float, value: float) -> None:
        if self.times and time_s < self.times[-1]:
            raise ConfigError(f"{self.name}: samples must be time-ordered")
        self.times.append(time_s)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        if not self.values:
            raise ConfigError(f"{self.name}: empty series")
        return sum(self.values) / len(self.values)

    def median(self) -> float:
        return self.percentile(50.0)

    def percentile(self, pct: float) -> float:
        return percentile(self.values, pct)

    def boxplot_summary(self) -> dict[str, float]:
        """The five-number summary the paper's box plots draw."""
        return {
            "p1": self.percentile(1.0),
            "q1": self.percentile(25.0),
            "median": self.median(),
            "q3": self.percentile(75.0),
            "p99": self.percentile(99.0),
        }

    def last(self) -> float:
        if not self.values:
            raise ConfigError(f"{self.name}: empty series")
        return self.values[-1]

    def window(self, t_start_s: float, t_end_s: float | None = None) -> "TraceSeries":
        """Sub-series restricted to a time window (drop warm-up, etc.)."""
        out = TraceSeries(self.name)
        for t, v in zip(self.times, self.values):
            if t < t_start_s:
                continue
            if t_end_s is not None and t > t_end_s:
                continue
            out.append(t, v)
        return out


class Trace:
    """A bag of named series, convenient for experiment recording."""

    def __init__(self) -> None:
        self._series: dict[str, TraceSeries] = {}

    def record(self, name: str, time_s: float, value: float) -> None:
        self.handle(name).append(time_s, value)

    def handle(self, name: str) -> TraceSeries:
        """The live series ``name``, created on first use.

        Hot recorders resolve a handle once and append to it directly;
        call this only right before the first append, or :meth:`names`
        will list a series with no samples.
        """
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TraceSeries(name)
        return series

    def series(self, name: str) -> TraceSeries:
        try:
            return self._series[name]
        except KeyError:
            known = ", ".join(sorted(self._series)) or "<none>"
            raise ConfigError(f"no series {name!r}; known: {known}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._series))

    def __contains__(self, name: str) -> bool:
        return name in self._series
