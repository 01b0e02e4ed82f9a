"""Struct-of-arrays batched chip stepping: the ``array`` engine.

The scalar hot loop (:meth:`repro.sim.chip.Chip.tick`) walks Python
``Core`` objects once per tick.  This module replaces whole *batches* of
ticks with numpy matrix transforms over a ``(ticks, cores)`` layout —
and, for a cluster stepped in lockstep, over all chips stacked along the
core axis into one ``(ticks, nodes x cores)`` batch — while keeping the
``Chip``/``Core`` object graph the single source of truth: state is
*gathered* into arrays at the start of a batch and *committed* back at
the end, so every consumer (daemon, telemetry, policies, tests) sees
exactly the objects it always did.

Equivalence contract (DESIGN.md section 13): results are bit-identical
to the scalar reference.  That holds because

* every elementwise formula replicates the scalar association order
  (:mod:`repro.sim.kernel`);
* order-sensitive accumulators are strictly sequential, seeded with
  the live running value: ``np.add.accumulate`` where every partial
  sum is needed, an in-place row fold where only the last one is;
* batches are *optimistically* sized and cut at the first tick whose
  behaviour diverges from the batch's invariants: a load finishing (the
  turbo ceiling changes next tick), a ``done`` flip re-marking the chip
  dirty, or the RAPL frequency cap dropping below the fastest unparked
  core's base frequency (the cap would start clipping, which the
  candidate matrices did not model);
* the RAPL limiter's EWMA control loop is a sequential recurrence with
  no closed form, so it is replayed tick-by-tick on local floats in the
  limiter's exact operation order and written back only for the
  committed prefix;
* anything the array path cannot reproduce exactly falls back to the
  scalar loop: websearch clusters attached, non-batch loads (timeshare,
  cluster serving cores), ``dirty_caching=False`` reference mode, grids
  with fewer than two points, gaps shorter than :data:`MIN_BATCH_TICKS`,
  or numpy being unavailable.

Gathering is two-tier.  Rows cached on the chip come in two sets,
split by what invalidates them: placement rows (:class:`_PlacementRows`:
app models, C-state increments, platform constants) change only when a
load is assigned or a core is parked, and frequency rows
(:class:`_FrequencyRows`) whenever the chip re-resolves its P-state
view — every mutation that can change them (``set_requested_frequency``,
``park``, ``assign_load``, a ``done`` flip) marks the chip dirty.  The
one mutation that does *not* is an app externally marked finished
(crash faults); that is why the ``running`` mask is re-read every
batch.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

try:  # pragma: no cover - exercised by absence only
    import numpy as np
except ImportError:  # pragma: no cover - the array engine is then disabled
    np = None  # type: ignore[assignment]

from repro.hw.cstates import EXIT_LATENCY_S, CState
from repro.sim import kernel
from repro.sim.core import BatchCoreLoad, IdleLoad, LoadSample
from repro.units import clamp

if TYPE_CHECKING:
    from repro.hw.pstate import PStateTable
    from repro.hw.rapl import RaplLimiter
    from repro.sim.chip import Chip

#: True when the array engine can run at all.
HAVE_NUMPY = np is not None

#: below this many ticks the fixed numpy call overhead outweighs the
#: vector win; the scalar loop takes the gap (1-tick cadences like the
#: thermal daemon land here automatically).
MIN_BATCH_TICKS = 8
#: candidate-batch ceiling: bounds the work discarded when an event
#: (finish / RAPL bind) cuts a batch short.
MAX_BATCH_TICKS = 512
#: scalar ticks taken after a batch commits nothing (the RAPL cap is
#: actively clipping): the cap moves every tick there, so immediately
#: retrying the vector path would compute and discard full candidate
#: batches one committed tick at a time.
RAPL_SCALAR_TICKS = 32

#: per-table cached grid arrays for the vectorized V/f interpolation
#: (PStateTable is an immutable value type with content hashing).
_GRID_CACHE: dict["PStateTable", tuple["np.ndarray", "np.ndarray"]] = {}

#: shared idle sample: LoadSample is frozen, so idle/parked lanes can
#: all reference one instance (consumers compare fields, not identity).
_IDLE_SAMPLE = LoadSample(0.0, 0.0, 0.0, done=True)

_STATIC_SERIAL = itertools.count()


def _grid_arrays(table: "PStateTable") -> tuple["np.ndarray", "np.ndarray"]:
    cached = _GRID_CACHE.get(table)
    if cached is None:
        freqs = np.asarray(table.frequencies_mhz, dtype=np.float64)
        volts = np.asarray(
            [p.voltage_v for p in table], dtype=np.float64
        )
        cached = (freqs, volts)
        # repro-lint: disable=shared-state-race — pure memo of a frozen table; every process recomputes identical arrays, nothing reads across processes
        _GRID_CACHE[table] = cached
    return cached


def chip_supports_array(chip: "Chip") -> bool:
    """Whether the batched array path can step this chip exactly.

    Anything outside the fast path's modelled invariants — websearch
    clusters (advanced with a global frequency view each tick),
    non-batch loads, the ``dirty_caching=False`` reference mode (which
    re-resolves P-states every tick), or a degenerate V/f grid — takes
    the scalar loop instead.
    """
    if not HAVE_NUMPY or not chip.dirty_caching or chip.clusters:
        return False
    if len(chip.platform.pstates.frequencies_mhz) < 2:
        return False
    for core in chip.cores:
        load_type = type(core.load)
        if load_type is not IdleLoad and load_type is not BatchCoreLoad:
            return False
    return True


class _PlacementRows:
    """Gather rows valid until a load is assigned or a core is parked.

    Everything here is a pure function of the load placement (which
    app model runs on which unparked core) and the platform constants.
    Rows that the scalar loop evaluates at ``eff = reference`` for idle
    and parked lanes live here too, since the reference frequency is a
    property of the load, not of the P-state view.
    """

    def __init__(self, chip: "Chip"):
        self.serial = next(_STATIC_SERIAL)
        self.generation = chip._placement_generation
        platform = chip.platform
        power = platform.power
        dt = chip.tick_s
        self.grid_f, self.grid_v = _grid_arrays(platform.pstates)
        self.n = len(chip.cores)
        self.uncore = power.uncore_watts
        self.wake_eff = max(0.0, 1.0 - EXIT_LATENCY_S[CState.C6] / dt)

        parked: list[bool] = []
        loads: list[BatchCoreLoad | None] = []
        ref: list[float] = []
        mem: list[float] = []
        base_ipc: list[float] = []
        stall: list[float] = []
        ceff: list[float] = []
        ipc_amp: list[float] = []
        pow_amp: list[float] = []
        period: list[float] = []
        offset: list[float] = []
        budget: list[float] = []
        for core in chip.cores:
            load = core.load
            parked.append(core.parked)
            if not core.parked and type(load) is BatchCoreLoad:
                app = load.app
                model = app.model
                loads.append(load)
                ref.append(load.reference_mhz)
                mem.append(model.mem_fraction)
                base_ipc.append(model.base_ipc)
                stall.append(model.stall_power_factor)
                ceff.append(model.c_eff)
                phase = model.phase
                ipc_amp.append(phase.ipc_amplitude)
                pow_amp.append(phase.power_amplitude)
                period.append(phase.period_s)
                offset.append(model._phase_offset())
                work = model.instructions
                budget.append(math.inf if work is None else work)
            else:
                # placeholder lanes: masked out of every result, chosen
                # only to keep the elementwise math finite
                loads.append(None)
                ref.append(1.0)
                mem.append(0.0)
                base_ipc.append(1.0)
                stall.append(1.0)
                ceff.append(0.0)
                ipc_amp.append(0.0)
                pow_amp.append(0.0)
                period.append(1.0)
                offset.append(0.0)
                budget.append(math.inf)
        self.parked = parked
        self.loads = loads
        self.has_budget = any(not math.isinf(b) for b in budget)

        n = self.n
        ref_row = np.asarray(ref, dtype=np.float64)
        # the roofline inputs the frequency rows re-evaluate at base
        self.ref_row = ref_row
        self.mem_row = np.asarray(mem, dtype=np.float64)
        self.ipc_row = np.asarray(base_ipc, dtype=np.float64)
        self.stall_row = np.asarray(stall, dtype=np.float64)
        rate_idle, factor_idle = kernel.roofline_rows(
            ref_row, ref_row, self.mem_row, self.ipc_row, self.stall_row
        )
        parked_arr = np.asarray(parked, dtype=bool)
        tsc_scaled = (chip._tsc_mhz * 1e6) * dt
        self.rows: dict[str, "np.ndarray"] = {
            "rate_idle": rate_idle,
            "factor_idle": factor_idle,
            "volt_idle": kernel.voltage_rows(ref_row, self.grid_f, self.grid_v),
            "fghz_idle": ref_row / 1000.0,
            "mperf_run": np.full(n, tsc_scaled, dtype=np.float64),
            "ceff_row": np.asarray(ceff, dtype=np.float64),
            "period_row": np.asarray(period, dtype=np.float64),
            "offset_row": np.asarray(offset, dtype=np.float64),
            "ipc_amp_row": np.asarray(ipc_amp, dtype=np.float64),
            "pow_amp_row": np.asarray(pow_amp, dtype=np.float64),
            "budget_row": np.asarray(budget, dtype=np.float64),
            "scale_row": np.full(n, power.c_eff_scale, dtype=np.float64),
            "leak_row": np.full(n, power.leak_coeff_w_per_v, dtype=np.float64),
            "idle_row": np.full(n, power.idle_core_watts, dtype=np.float64),
            "wake_row": np.full(n, self.wake_eff, dtype=np.float64),
            "c1_idle": np.where(parked_arr, 0.0, dt),
            "c6_inc": np.where(parked_arr, dt, 0.0),
        }


class _FrequencyRows:
    """Gather rows valid until the chip next re-resolves its P-state view.

    The scalar loop evaluates the roofline, V/f and counter formulas at
    ``eff = base`` for busy lanes; these are those *running* variants
    (the idle ones, at ``eff = reference``, sit in
    :class:`_PlacementRows`).  The per-batch step selects between the
    two with the live ``running`` mask, which keeps the precomputation
    bit-identical to evaluating on the masked frequency row directly.
    """

    def __init__(self, chip: "Chip", placement: _PlacementRows):
        self.view_generation = chip._view_generation
        dt = chip.tick_s
        base = list(chip._base_effective_mhz)
        # parked cores carry base 0.0, so this is the fastest *unparked*
        # base frequency: the threshold below which the RAPL cap clips
        self.base_max = max(base) if base else 0.0
        self.base_list = base
        base_row = np.asarray(base, dtype=np.float64)
        ref_row = placement.ref_row
        # running lanes always have base > 0 (parked lanes are the only
        # zero entries); guard the precomputed running view against the
        # division anyway — those lanes are masked out of every use
        eff_run = np.where(base_row > 0.0, base_row, ref_row)
        rate_run, factor_run = kernel.roofline_rows(
            eff_run,
            ref_row,
            placement.mem_row,
            placement.ipc_row,
            placement.stall_row,
        )
        self.rows: dict[str, "np.ndarray"] = {
            "rate_run": rate_run,
            "factor_run": factor_run,
            "volt_run": kernel.voltage_rows(
                eff_run, placement.grid_f, placement.grid_v
            ),
            "fghz_run": base_row / 1000.0,
            "aperf_run": (base_row * 1e6) * dt,
        }


class ChipArrayState:
    """One chip's per-batch gather: cached row sets + live masks.

    Built at the start of every batch; the constructor performs the same
    lazy P-state refresh the scalar tick would (so a pending dirty flag
    resolves identically, including raising on invalid simultaneous
    P-state requests).  The frequency rows are keyed on the chip's view
    *generation*, not on who cleared the dirty flag: a refresh run by a
    scalar tick in between batches (which consumes ``_dirty``) must
    still invalidate rows gathered from the older view.  The placement
    rows are keyed on the chip's placement generation, which only
    ``assign_load`` and ``park`` bump.
    """

    def __init__(self, chip: "Chip"):
        if chip._dirty or not chip.dirty_caching:
            chip._refresh_pstate_view()
        placement = chip.__dict__.get("_soa_placement")
        if (
            placement is None
            or placement.generation != chip._placement_generation
        ):
            placement = _PlacementRows(chip)
            chip._soa_placement = placement
        # a new placement always comes with a new view: assign_load and
        # park mark the chip dirty, and the refresh above bumps it
        freq = chip.__dict__.get("_soa_frequency")
        if freq is None or freq.view_generation != chip._view_generation:
            freq = _FrequencyRows(chip, placement)
            chip._soa_frequency = freq
        self.chip = chip
        self.placement = placement
        self.freq = freq
        self.dt = chip.tick_s
        self.t0 = chip.time_s

        loads = placement.loads
        running: list[bool] = []
        retired0: list[float] = []
        elapsed0: list[float] = []
        prev_c6: list[bool] = []
        residencies = chip.cstates._cores
        for local, core in enumerate(chip.cores):
            load = loads[local]
            if load is not None and not load.app.finished:
                running.append(True)
                retired0.append(load.app.retired_instructions)
                elapsed0.append(load.app.elapsed_s)
            else:
                running.append(False)
                retired0.append(0.0)
                elapsed0.append(0.0)
            prev_c6.append(residencies[core.core_id].current is CState.C6)
        self.running = running
        self.running_arr = np.asarray(running, dtype=bool)
        self.retired0 = retired0
        self.elapsed0 = elapsed0
        self.prev_c6 = prev_c6


def advance_chip(chip: "Chip", n_ticks: int) -> None:
    """Advance one chip ``n_ticks`` via the array path (with fallback)."""
    advance_chips([chip], n_ticks)


def advance_chips(chips: list["Chip"], n_ticks: int) -> None:
    """Advance every chip by ``n_ticks``, batching where possible.

    Chips the array path cannot step exactly take the scalar loop;
    the rest are stacked along the core axis (grouped by tick length)
    and stepped as one ``(ticks, total cores)`` batch.
    """
    if n_ticks <= 0:
        for chip in chips:
            chip.advance_ticks(n_ticks)
        return
    groups: dict[float, list["Chip"]] = {}
    for chip in chips:
        if chip_supports_array(chip):
            groups.setdefault(chip.tick_s, []).append(chip)
        else:
            chip.advance_ticks(n_ticks)
    for group in groups.values():
        _advance_group(group, n_ticks)


def _advance_group(chips: list["Chip"], n_ticks: int) -> None:
    remaining = n_ticks
    while remaining > 0:
        if remaining < MIN_BATCH_TICKS:
            for chip in chips:
                chip.advance_ticks(remaining)
            return
        states = [ChipArrayState(chip) for chip in chips]
        committed = _advance_batch(states, min(remaining, MAX_BATCH_TICKS))
        if committed == 0:
            # the RAPL cap is clipping right now: run scalar for a
            # stretch instead of re-deriving candidates one tick at a
            # time while the cap walks
            committed = min(remaining, RAPL_SCALAR_TICKS)
            for chip in chips:
                chip.advance_ticks(committed)
        remaining -= committed


#: last stacked placement-row set, keyed by the group's placement
#: serials, so lockstep cluster batches don't re-concatenate rows that
#: only a load assignment or a parking decision can change.
_GROUP_KEY: tuple[int, ...] | None = None
_GROUP_ROWS: dict[str, "np.ndarray"] | None = None


def _group_rows(states: list[ChipArrayState]) -> dict[str, "np.ndarray"]:
    """Every gather row of the group, stacked along the core axis.

    Frequency rows change whenever a daemon re-programs a P-state, so
    they are stacked afresh each batch; placement rows come from the
    memo above.
    """
    global _GROUP_KEY, _GROUP_ROWS
    if len(states) == 1:
        return {**states[0].placement.rows, **states[0].freq.rows}
    key = tuple(st.placement.serial for st in states)
    if key != _GROUP_KEY or _GROUP_ROWS is None:
        placements = [st.placement for st in states]
        # repro-lint: disable=shared-state-race — per-process memo keyed by static serials; each worker rebuilds identical rows from its own chips
        _GROUP_ROWS = {
            name: np.concatenate([p.rows[name] for p in placements])
            for name in placements[0].rows
        }
        # repro-lint: disable=shared-state-race — cache key for the row memo above; same per-process recomputation argument
        _GROUP_KEY = key
    freqs = [st.freq for st in states]
    rows = dict(_GROUP_ROWS)
    for name in freqs[0].rows:
        rows[name] = np.concatenate([f.rows[name] for f in freqs])
    return rows


def _fold_rows(
    seed_row: "np.ndarray", increments: "np.ndarray"
) -> "np.ndarray":
    """Each column's value after chaining ``x += inc`` down its rows.

    One in-place add per row is the same sequence of float additions as
    ``kernel.seeded_accumulate(seed_row, increments)[-1]``, so the
    result is bit-identical, but it reads the matrix row by row instead
    of writing a ``(T + 1, C)`` running-sum matrix along the strided
    axis.  (``np.add.reduce``/``np.sum`` would be pairwise, not
    chained.)
    """
    acc = np.array(seed_row, dtype=np.float64)
    for row in increments:
        np.add(acc, row, out=acc)
    return acc


def _stack_dyn(arrays: list["np.ndarray"]) -> "np.ndarray":
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays)


def _replay_rapl(
    limiter: "RaplLimiter",
    pkg_list: list[float],
    dt: float,
    base_max: float,
    max_ticks: int,
) -> tuple[int, tuple[float, float, bool]]:
    """Run the limiter recurrence forward on local floats.

    Replicates :meth:`RaplLimiter.observe` operation-for-operation
    (EWMA update, proportional step, cap clamp) without per-tick method
    and attribute dispatch.  Stops before the first tick whose
    pre-observe cap falls below ``base_max`` — from that tick on
    ``clip()`` would alter effective frequencies and invalidate the
    batch's candidate matrices.  Returns the number of valid ticks and
    the control state after them; the caller writes the state back only
    for the globally committed prefix.
    """
    avg, cap, primed = limiter.control_state()
    config = limiter.config
    alpha = clamp(dt / config.averaging_tau_s, 0.0, 1.0)
    if cap < base_max:
        return 0, (avg, cap, primed)
    limit = limiter.limit_w
    if limit is None:
        # the cap never moves without a limit: every tick is valid and
        # only the running average advances
        start = 0
        if not primed and max_ticks > 0:
            avg = pkg_list[0]
            primed = True
            start = 1
        for pkg in pkg_list[start:max_ticks]:
            avg += alpha * (pkg - avg)
        return max_ticks, (avg, cap, primed)
    gain = config.gain_mhz_per_w
    hyst = config.hysteresis_w
    min_f = limiter.platform.min_frequency_mhz
    max_f = limiter.platform.max_frequency_mhz
    observed = 0
    while observed < max_ticks:
        if cap < base_max:
            break
        pkg = pkg_list[observed]
        if primed:
            avg += alpha * (pkg - avg)
        else:
            avg = pkg
            primed = True
        error = avg - limit
        if error > 0.0:
            cap = max(min_f, min(max_f, cap - gain * error))
        elif error < -hyst:
            cap = max(min_f, min(max_f, cap - gain * (error + hyst)))
        observed += 1
    return observed, (avg, cap, primed)


def _advance_batch(states: list[ChipArrayState], n_ticks: int) -> int:
    """Step every gathered chip up to ``n_ticks``; returns ticks committed.

    Returns 0 (committing nothing) only when the RAPL cap would clip the
    very first tick — the caller then takes the scalar path.
    """
    dt = states[0].dt
    total = 0
    slices: list[slice] = []
    for state in states:
        slices.append(slice(total, total + state.placement.n))
        total += state.placement.n
    rows = _group_rows(states)

    running = _stack_dyn([st.running_arr for st in states])
    prev_done = _stack_dyn(
        [
            np.asarray(st.chip._prev_sample_done, dtype=bool)
            for st in states
        ]
    )
    rate0 = np.where(running, rows["rate_run"], rows["rate_idle"])
    factor = np.where(running, rows["factor_run"], rows["factor_idle"])
    any_budget = any(st.placement.has_budget for st in states)

    # event split, part 1: without instruction budgets the only split
    # trigger is a `done` flip at tick 0 (fresh assignment, external
    # finish), detectable before any matrix work — a flip commits a
    # single tick so the scalar dirty/refresh cascade replays exactly
    if any_budget:
        window = n_ticks
    else:
        done0 = ~running
        window = 1 if bool((done0 != prev_done).any()) else n_ticks

    # per-chip simulated-time series, broadcast to that chip's columns
    times = np.empty((window, total), dtype=np.float64)
    t_series: list["np.ndarray"] = []
    dt_col = np.full(window, dt, dtype=np.float64)
    for state, cols in zip(states, slices):
        t_acc = kernel.seeded_series(state.t0, dt_col)
        t_series.append(t_acc)
        times[:, cols] = t_acc[:window, None]
    ipc_t, pow_t = kernel.phase_factors(
        times,
        rows["period_row"],
        rows["offset_row"],
        rows["ipc_amp_row"],
        rows["pow_amp_row"],
    )
    cand = np.where(running, kernel.retired_rows(rate0, ipc_t, dt), 0.0)

    # event split, part 2: with budgets in play, scan for the earliest
    # finishing tick; the batch runs through it inclusive (behaviour
    # changes the tick after)
    if any_budget:
        budget_row = rows["budget_row"]
        r0 = _stack_dyn(
            [np.asarray(st.retired0, dtype=np.float64) for st in states]
        )
        r_acc = kernel.seeded_accumulate(r0, cand)
        hits = (cand >= (budget_row - r_acc[:window])) & running
        first_hit = kernel.first_hit_rows(hits, window)
        done0 = np.where(running, first_hit == 0, True)
        if bool((done0 != prev_done).any()):
            length = 1
        else:
            length = min(window, int(first_hit.min()) + 1)
    else:
        first_hit = None
        length = window

    # power matrix over the candidate window
    volt = np.where(running, rows["volt_run"], rows["volt_idle"])
    fghz = np.where(running, rows["fghz_run"], rows["fghz_idle"])
    ceff_t = (rows["ceff_row"] * factor) * pow_t[:length]
    power = kernel.power_rows(
        ceff_t,
        volt,
        fghz,
        rows["scale_row"],
        rows["leak_row"],
        rows["idle_row"],
        running,
    )
    pkg_lists: list[list[float]] = []
    for state, cols in zip(states, slices):
        pkg = (
            kernel.sequential_row_sum(power[:, cols])
            + state.placement.uncore
        )
        pkg_lists.append(pkg.tolist())

    # RAPL: replay the EWMA/cap recurrence; a tick is only valid while
    # the cap clears the fastest unparked base frequency (otherwise
    # clip() would have altered effective MHz and every candidate
    # matrix after it)
    commit = length
    replays: list[
        tuple["RaplLimiter", list[float], float, int, tuple[float, float, bool]]
    ] = []
    for state, pkg_list in zip(states, pkg_lists):
        limiter = state.chip.rapl
        if limiter is None:
            continue
        observed, final = _replay_rapl(
            limiter, pkg_list, dt, state.freq.base_max, length
        )
        replays.append(
            (limiter, pkg_list, state.freq.base_max, observed, final)
        )
        if observed < commit:
            commit = observed
    if commit == 0:
        return 0
    for limiter, pkg_list, base_max, observed, final in replays:
        if observed != commit:
            # a shorter global prefix committed: re-derive the control
            # state after exactly the committed ticks
            _, final = _replay_rapl(limiter, pkg_list, dt, base_max, commit)
        limiter.restore_control_state(final)

    # instruction view the counters see: the finishing tick is clamped
    # to the app's remaining budget, then (order matters) the first tick
    # after a C6 exit is discounted by the wake-up efficiency
    inst = cand[:commit]
    copied = False
    r_final_list: list[float] | None = None
    if first_hit is not None:
        finisher = running & (first_hit == commit - 1)
        any_finish = bool(finisher.any())
    else:
        finisher = None
        any_finish = False
    if any_finish:
        inst = inst.copy()
        copied = True
        clamped = np.maximum(budget_row - r_acc[commit - 1], 0.0)
        inst[commit - 1] = np.where(finisher, clamped, inst[commit - 1])
        r_final_list = np.where(
            finisher, r_acc[commit - 1] + clamped, r_acc[commit]
        ).tolist()
    wake_needed = any(
        c6 and run
        for st in states
        for c6, run in zip(st.prev_c6, st.running)
    )
    if wake_needed:
        if not copied:
            inst = inst.copy()
        wake = (
            _stack_dyn(
                [np.asarray(st.prev_c6, dtype=bool) for st in states]
            )
            & running
        )
        inst[0] = np.where(
            wake & (inst[0] > 0.0), inst[0] * rows["wake_row"], inst[0]
        )

    # seeded running sums, fused: one strictly-sequential row fold over
    # 13 side-by-side column blocks (each column is an independent
    # chained `x += inc`, so fusing preserves bit-exactness) instead of
    # 13 separate folds
    dt_running = np.where(running, dt, 0.0)
    energy_inc = power[:commit] * dt
    seeds: list[float] = []
    for st in states:
        seeds.extend(st.chip._instr_total)
    for st in states:
        seeds.extend(c.total_instructions for c in st.chip.cores)
    for st in states:
        seeds.extend(st.chip.energy._core_energy_j)
    for st in states:
        seeds.extend(c.total_energy_j for c in st.chip.cores)
    for st in states:
        seeds.extend(c.total_busy_s for c in st.chip.cores)
    for st in states:
        seeds.extend(c.total_time_s for c in st.chip.cores)
    for st in states:
        seeds.extend(st.chip._aperf_cycles)
    for st in states:
        seeds.extend(st.chip._mperf_cycles)
    for st in states:
        seeds.extend(r.c0_s for r in st.chip.cstates._cores)
    for st in states:
        seeds.extend(r.c1_s for r in st.chip.cstates._cores)
    for st in states:
        seeds.extend(r.c6_s for r in st.chip.cstates._cores)
    for st in states:
        seeds.extend(st.elapsed0)
    for st in states:
        seeds.extend(st.retired0)
    big = np.empty((commit, 13 * total), dtype=np.float64)
    big[:, 0:total] = inst                                # MSR instr
    big[:, total : 2 * total] = inst                      # core totals
    big[:, 2 * total : 3 * total] = energy_inc            # RAPL per-core
    big[:, 3 * total : 4 * total] = energy_inc            # core totals
    big[:, 4 * total : 5 * total] = dt_running            # busy seconds
    big[:, 5 * total : 6 * total] = dt                    # wall seconds
    big[:, 6 * total : 7 * total] = np.where(running, rows["aperf_run"], 0.0)
    big[:, 7 * total : 8 * total] = np.where(running, rows["mperf_run"], 0.0)
    big[:, 8 * total : 9 * total] = dt_running            # C0 residency
    big[:, 9 * total : 10 * total] = np.where(running, 0.0, rows["c1_idle"])
    big[:, 10 * total : 11 * total] = rows["c6_inc"]
    big[:, 11 * total : 12 * total] = dt_running          # app elapsed_s
    big[:, 12 * total : 13 * total] = cand[:commit]       # app retired
    finals = _fold_rows(np.asarray(seeds, dtype=np.float64), big).tolist()
    i_f = finals[0:total]
    ti_f = finals[total : 2 * total]
    e_f = finals[2 * total : 3 * total]
    te_f = finals[3 * total : 4 * total]
    b_f = finals[4 * total : 5 * total]
    tt_f = finals[5 * total : 6 * total]
    a_f = finals[6 * total : 7 * total]
    m_f = finals[7 * total : 8 * total]
    c0_f = finals[8 * total : 9 * total]
    c1_f = finals[9 * total : 10 * total]
    c6_f = finals[10 * total : 11 * total]
    el_f = finals[11 * total : 12 * total]
    r_f = (
        r_final_list
        if r_final_list is not None
        else finals[12 * total : 13 * total]
    )

    if finisher is not None:
        done_last = np.where(running, finisher, True)
    else:
        done_last = ~running
    done_list = done_last.tolist()
    if commit == 1:
        flip_list = (done_last != prev_done).tolist()
    elif commit == length and finisher is not None:
        flip_list = finisher.tolist()
    else:
        # a RAPL cut strictly precedes every budget hit (the window ran
        # past `commit`), so no lane's done state can have flipped
        flip_list = None
    finisher_list = finisher.tolist() if any_finish else None

    # commit: scatter the final values back into the object graph (the
    # tolist() extractions above yield plain Python floats and bools —
    # np.float64 must never leak into state)
    inst_last = inst[commit - 1].tolist()
    ceff_last = ceff_t[commit - 1].tolist()
    power_last = power[commit - 1].tolist()
    factor_list = factor.tolist()
    for idx, (state, cols) in enumerate(zip(states, slices)):
        chip = state.chip
        base_list = state.freq.base_list
        loads = state.placement.loads
        parked = state.placement.parked
        is_running = state.running
        aperf = chip._aperf_cycles
        mperf = chip._mperf_cycles
        instr = chip._instr_total
        prev = chip._prev_sample_done
        core_energy = chip.energy._core_energy_j
        residencies = chip.cstates._cores
        start = cols.start
        dirty = False
        for local, core in enumerate(chip.cores):
            g = start + local
            cpu = core.core_id
            if is_running[local]:
                load = loads[local]
                assert load is not None
                app = load.app
                app.retired_instructions = r_f[g]
                app.elapsed_s = el_f[g]
                if finisher_list is not None and finisher_list[g]:
                    app.finished = True
                load._factor = factor_list[g]
                load._factor_freq = base_list[local]
                core.effective_mhz = base_list[local]
                core.last_sample = LoadSample(
                    instructions=inst_last[g],
                    busy_fraction=1.0,
                    c_eff=ceff_last[g],
                    done=done_list[g],
                )
                new_state = CState.C0
            else:
                core.effective_mhz = (
                    0.0 if parked[local] else base_list[local]
                )
                core.last_sample = _IDLE_SAMPLE
                new_state = CState.C6 if parked[local] else CState.C1
            core.total_instructions = ti_f[g]
            core.total_energy_j = te_f[g]
            core.total_busy_s = b_f[g]
            core.total_time_s = tt_f[g]
            aperf[cpu] = a_f[g]
            mperf[cpu] = m_f[g]
            instr[cpu] = i_f[g]
            core_energy[cpu] = e_f[g]
            residency = residencies[cpu]
            residency.c0_s = c0_f[g]
            residency.c1_s = c1_f[g]
            residency.c6_s = c6_f[g]
            if new_state is not residency.current:
                residency.transitions += 1
                residency.current = new_state
            prev[cpu] = done_list[g]
            if flip_list is not None and flip_list[g]:
                dirty = True
        chip.last_core_powers_w = power_last[cols]
        pkg_list = pkg_lists[idx]
        chip.last_package_power_w = pkg_list[commit - 1]
        pkg_energy = chip.energy._pkg_energy_j
        for pkg in pkg_list[:commit]:
            pkg_energy += pkg * dt
        chip.energy._pkg_energy_j = pkg_energy
        chip.time_s = float(t_series[idx][commit])
        if dirty:
            chip._dirty = True
    return commit
