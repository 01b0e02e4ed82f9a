"""The transport's send/deliver against the per-envelope forms they replaced.

``UnreliableTransport`` derives ``quiet`` and "has partitions" from its
frozen :class:`~repro.faults.scenario.TransportScenario` once, at
construction, and ``deliver`` skips work on empty, all-due and
single-item queues.  The methods below are the original forms, which
re-evaluate the scenario on every envelope, kept here as the oracle.
Over random send/deliver/flush/seal sequences under four scenario
shapes — quiet, partitions only, lossy without partitions, lossy with
partitions (``node=None`` included) — both must deliver the same
batches in the same order, count the same totals and per-epoch
windows, leave the RNG in the same state, and snapshot identically.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.transport import (
    ARBITER,
    DEMAND,
    GRANT,
    Envelope,
    UnreliableTransport,
)
from repro.faults import LinkPartition, TransportScenario


class OracleTransport(UnreliableTransport):
    """``send``/``deliver`` exactly as they were before the hoist."""

    def _enqueue(self, env: Envelope, delivery_epoch: int) -> None:
        self._order += 1
        self._queues.setdefault(env.dst, []).append(
            (delivery_epoch, self._order, env)
        )

    def send(self, env: Envelope, now_epoch: int) -> None:
        s = self.scenario
        self.stats.count("sent")
        if s.partitioned(self._node_of(env), now_epoch):
            self.stats.count("dropped")
            return
        if s.quiet:
            self._enqueue(env, now_epoch)
            return
        roll = self._rng.random()
        if roll < s.drop_rate:
            self.stats.count("dropped")
            return
        roll -= s.drop_rate
        copies = 1
        if roll < s.dup_rate:
            self.stats.count("duplicated")
            copies = 2
        delivery = now_epoch
        if self._rng.random() < s.delay_rate:
            self.stats.count("delayed")
            delivery = now_epoch + self._rng.randint(1, s.max_delay_epochs)
        for _ in range(copies):
            self._enqueue(env, delivery)

    def deliver(self, dst: str, now_epoch: int) -> list[Envelope]:
        queue = self._queues.get(dst, [])
        due = [item for item in queue if item[0] <= now_epoch]
        if not due:
            return []
        self._queues[dst] = [item for item in queue if item[0] > now_epoch]
        due.sort(key=lambda item: (item[0], item[1]))
        batch = [env for _, _, env in due]
        kept: list[Envelope] = []
        for env in batch:
            if self.scenario.partitioned(
                self._node_of(env), now_epoch
            ):
                self.stats.count("dropped")
            else:
                kept.append(env)
        if len(kept) > 1 and not self.scenario.quiet:
            if self._rng.random() < self.scenario.reorder_rate:
                self._rng.shuffle(kept)
        self.stats.count("delivered", len(kept))
        return kept


NODES = ("n0", "n1", "n2")
ENDPOINTS = NODES + (ARBITER,)

PARTITIONS = (
    LinkPartition(1, 3, "n1"),
    LinkPartition(4, 5, None),
    LinkPartition(6, 9, "n0"),
)
LOSSY = dict(
    drop_rate=0.2,
    dup_rate=0.2,
    delay_rate=0.4,
    max_delay_epochs=3,
    reorder_rate=0.5,
)

SCENARIOS = {
    "quiet": TransportScenario(name="quiet"),
    "partitions-only": TransportScenario(
        name="partitions-only", partitions=PARTITIONS
    ),
    "lossy": TransportScenario(name="lossy", **LOSSY),
    "lossy-partitioned": TransportScenario(
        name="lossy-partitioned", partitions=PARTITIONS, **LOSSY
    ),
}

#: one step of a sequence: (op, endpoint index, epoch advance).
step = st.tuples(
    st.sampled_from(("demand", "grant", "deliver", "deliver", "flush", "seal")),
    st.integers(min_value=0, max_value=len(ENDPOINTS) - 1),
    st.integers(min_value=0, max_value=1),
)


def _replay(transport: UnreliableTransport, steps) -> list:
    """Drive one transport through ``steps``; return what it observed."""
    observed: list = []
    epoch = 0
    seqs: dict[str, int] = {}
    for op, index, advance in steps:
        epoch += advance
        endpoint = ENDPOINTS[index]
        node = NODES[index % len(NODES)]
        if op in ("demand", "grant"):
            src, dst = (node, ARBITER) if op == "demand" else (ARBITER, node)
            seq = seqs.get(src, 0)
            seqs[src] = seq + 1
            transport.send(
                Envelope(
                    kind=DEMAND if op == "demand" else GRANT,
                    src=src,
                    dst=dst,
                    epoch=epoch,
                    seq=seq,
                    payload=float(seq),
                ),
                epoch,
            )
        elif op == "deliver":
            observed.append(("deliver", endpoint, transport.deliver(endpoint, epoch)))
        elif op == "flush":
            observed.append(("flush", endpoint, transport.flush(endpoint)))
        else:
            observed.append(("seal", epoch, transport.stats.take_epoch(epoch)))
        # queues, order counter, RNG and stats agree after every step
        observed.append(("state", transport.snapshot()))
    # drain everything still in flight, so delayed copies are compared too
    for endpoint in ENDPOINTS:
        observed.append(
            ("drain", endpoint, transport.deliver(endpoint, epoch + 10))
        )
    return observed


def _state(transport: UnreliableTransport) -> tuple:
    stats = transport.stats
    return (
        transport.snapshot(),
        transport._rng.getstate(),
        stats.snapshot(),
        stats.epoch_windows(),
        stats.take_epoch(),
    )


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(SCENARIOS)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    steps=st.lists(step, min_size=1, max_size=80),
)
def test_send_deliver_match_the_per_envelope_oracle(name, seed, steps):
    scenario = SCENARIOS[name]
    fast = UnreliableTransport(scenario, seed=seed)
    oracle = OracleTransport(scenario, seed=seed)
    fast_seen = _replay(fast, steps)
    oracle_seen = _replay(oracle, steps)
    assert fast_seen == oracle_seen
    assert _state(fast) == _state(oracle)


def test_every_scenario_shape_exercises_its_branch():
    """The four shapes really differ in the flags the transport hoists."""
    flags = {
        name: (
            UnreliableTransport(scenario)._quiet,
            UnreliableTransport(scenario)._partitions,
        )
        for name, scenario in SCENARIOS.items()
    }
    assert flags == {
        "quiet": (True, False),
        "partitions-only": (False, True),
        "lossy": (False, False),
        "lossy-partitioned": (False, True),
    }
