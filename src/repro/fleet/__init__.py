"""Fleet-scale hierarchical power arbitration.

Facility → row → rack → node budget domains (:mod:`.topology`), the
diurnal traffic schedule and oversubscription safety check
(:mod:`.schedule`), and the arbiter that water-fills the budget down
the domain tree every epoch with the same exact sweep the per-socket
daemon uses (:mod:`.arbiter`; flat ``groups`` configs arbitrate a
derived two-level tree).
"""

from repro.fleet.schedule import (
    DiurnalSchedule,
    OversubscriptionReport,
    assess_oversubscription,
)
from repro.fleet.topology import (
    DomainSpec,
    domain_from_jsonable,
    grid_topology,
    iter_domains,
    leaf_racks,
    rack_of_map,
    rack_row_indices,
    validate_topology,
)

__all__ = [
    "DiurnalSchedule",
    "DomainSpec",
    "FleetArbiter",
    "OversubscriptionReport",
    "assess_oversubscription",
    "domain_from_jsonable",
    "flat_topology",
    "grid_topology",
    "iter_domains",
    "leaf_racks",
    "make_arbiter",
    "rack_of_map",
    "rack_row_indices",
    "validate_topology",
]


def __getattr__(name: str):
    # FleetArbiter pulls in repro.cluster, which itself imports
    # repro.fleet.topology — resolve lazily to keep the import DAG.
    if name in ("FleetArbiter", "flat_topology", "make_arbiter"):
        from repro.fleet import arbiter

        return getattr(arbiter, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
