"""ClusterTrace's cached series handles against plain ``Trace.record``.

``ClusterTrace`` resolves each node's per-node series (and its
``.lease`` series) once, on the node's first sample, and appends to the
handles directly.  The reference below records the same epochs the
original way — one formatted name and one ``Trace.record`` per sample —
and both must serialise to the same bytes through membership changes
and partial epochs.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.node import NodeEpochReport
from repro.cluster.trace import ClusterTrace
from repro.errors import ConfigError
from repro.telemetry.trace import Trace


def reference_epoch(trace, t_end_s, reports, caps_w, budget_w):
    rec = trace.record
    for name in sorted(reports):
        report = reports[name]
        rec(f"{name}.power_w", t_end_s, report.mean_power_w)
        rec(f"{name}.cap_w", t_end_s, report.cap_w)
        rec(f"{name}.throttle", t_end_s, report.throttle_pressure)
        rec(f"{name}.headroom_w", t_end_s, report.headroom_w)
        rec(f"{name}.parked", t_end_s, float(report.parked_cores))
        rec(f"{name}.quarantined", t_end_s, float(report.quarantined_cores))
    rec(
        "cluster.power_w",
        t_end_s,
        sum(reports[name].mean_power_w for name in sorted(reports)),
    )
    rec("cluster.cap_w", t_end_s, sum(caps_w[name] for name in sorted(caps_w)))
    rec("cluster.budget_w", t_end_s, budget_w)


def reference_control(trace, t_end_s, transport_epoch, lease_codes):
    rec = trace.record
    for event in sorted(transport_epoch):
        rec(f"transport.{event}", t_end_s, float(transport_epoch[event]))
    for name in sorted(lease_codes):
        rec(f"{name}.lease", t_end_s, float(lease_codes[name]))
    for series in (
        "cluster.reserved_w", "cluster.degraded_grants", "cluster.restarts",
        "cluster.crash_recoveries", "cluster.brownout",
        "cluster.trust_violations", "cluster.quarantined",
    ):
        rec(series, t_end_s, 0.0)


def report(name, epoch, power):
    return NodeEpochReport(
        name=name,
        epoch=epoch,
        t_end_s=float(epoch + 1),
        cap_w=40.0 + epoch,
        mean_power_w=power,
        throttle_pressure=0.1 * epoch,
        headroom_w=max(40.0 + epoch - power, 0.0),
        parked_cores=epoch % 3,
        quarantined_cores=epoch % 2,
        samples=1,
    )


#: per epoch: (reporting nodes, nodes holding a lease).  ``late`` joins
#: at epoch 2; ``gone`` retires after epoch 2, so both its report and
#: its lease series stop; ``down`` holds a lease but never reports;
#: ``solo`` reports once but never holds a lease; the node named
#: ``cluster`` shares ``cluster.power_w``/``cluster.cap_w`` with the
#: global series, so aliased handles are covered too.
EPOCHS = (
    (("a", "gone", "cluster"), ("a", "gone", "cluster", "down")),
    (("a", "gone", "cluster"), ("a", "gone", "cluster", "down")),
    (("a", "late", "gone", "cluster"), ("a", "late", "gone", "cluster", "down")),
    (("a", "late", "cluster", "solo"), ("a", "late", "cluster", "down")),
    (("late", "a", "cluster"), ("late", "a", "cluster", "down")),
)


def feed(epochs):
    handles = ClusterTrace()
    plain = Trace()
    for epoch, (reporting, leased) in enumerate(epochs):
        t_end = float(epoch + 1)
        reports = {
            name: report(name, epoch, 10.0 + len(name) + 0.1 * epoch)
            for name in reporting
        }
        caps = {name: reports[name].cap_w for name in reporting}
        codes = {name: (epoch + len(name)) % 4 for name in leased}
        window = {"sent": epoch, "delivered": epoch, "stale": 0}
        handles.record_epoch(t_end, reports, caps, 500.0)
        handles.record_control(
            t_end,
            transport_epoch=window,
            lease_codes=codes,
            reserved_w=0.0,
            degraded_grants=0,
        )
        reference_epoch(plain, t_end, reports, caps, 500.0)
        reference_control(plain, t_end, window, codes)
    return handles, plain


def as_bytes(jsonable) -> bytes:
    return json.dumps(jsonable, sort_keys=True).encode()


def plain_jsonable(trace: Trace) -> dict:
    return {
        name: {
            "t": list(trace.series(name).times),
            "v": list(trace.series(name).values),
        }
        for name in trace.names()
    }


class TestHandlesMatchPlainRecord:
    def test_same_bytes_through_joins_retirements_and_aliases(self):
        handles, plain = feed(EPOCHS)
        assert handles.names() == plain.names()
        assert as_bytes(handles.to_jsonable()) == as_bytes(plain_jsonable(plain))

    def test_every_prefix_matches(self):
        for n in range(1, len(EPOCHS) + 1):
            handles, plain = feed(EPOCHS[:n])
            assert as_bytes(handles.to_jsonable()) == as_bytes(
                plain_jsonable(plain)
            )

    def test_retired_series_stop_and_late_series_start(self):
        handles, _ = feed(EPOCHS)
        assert handles.series("gone.lease").times == [1.0, 2.0, 3.0]
        assert handles.series("gone.power_w").times == [1.0, 2.0, 3.0]
        assert handles.series("late.cap_w").times == [3.0, 4.0, 5.0]
        assert handles.series("late.lease").times == [3.0, 4.0, 5.0]
        # two samples per epoch: the node's own, then the fleet sum
        assert len(handles.series("cluster.power_w")) == 2 * len(EPOCHS)


class TestSeriesReadBeforeFirstSample:
    def test_unrecorded_node_series_does_not_exist(self):
        handles, _ = feed(EPOCHS[:2])
        assert "late.power_w" not in handles
        assert "late.lease" not in handles
        with pytest.raises(ConfigError):
            handles.series("late.power_w")
        handles, _ = feed(EPOCHS[:3])
        assert handles.series("late.power_w").times == [3.0]

    def test_lease_without_report_creates_only_the_lease_series(self):
        handles, _ = feed(EPOCHS)
        assert "down.lease" in handles
        assert not any(
            name.startswith("down.") and name != "down.lease"
            for name in handles.names()
        )

    def test_report_without_lease_creates_no_lease_series(self):
        handles, _ = feed(EPOCHS)
        assert handles.series("solo.power_w").times == [4.0]
        assert "solo.lease" not in handles

    def test_a_read_does_not_create_a_series(self):
        handles = ClusterTrace()
        with pytest.raises(ConfigError):
            handles.series("a.power_w")
        assert handles.names() == ()
        assert handles.to_jsonable() == {}


class TestTimeOrder:
    def test_out_of_order_epoch_raises_through_the_handles(self):
        handles = ClusterTrace()
        reports = {"a": report("a", 3, 12.0)}
        handles.record_epoch(4.0, reports, {"a": 43.0}, 500.0)
        with pytest.raises(ConfigError, match="time-ordered"):
            handles.record_epoch(3.0, reports, {"a": 43.0}, 500.0)

    def test_out_of_order_lease_raises_through_the_handles(self):
        handles = ClusterTrace()
        handles.record_control(
            4.0, transport_epoch={}, lease_codes={"a": 0},
            reserved_w=0.0, degraded_grants=0,
        )
        with pytest.raises(ConfigError, match="time-ordered"):
            handles.record_control(
                3.0, transport_epoch={}, lease_codes={"a": 1},
                reserved_w=0.0, degraded_grants=0,
            )
