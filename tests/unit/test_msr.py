"""Tests for the MSR register file."""

import pytest

from repro.errors import MSRAddressError, MSRPermissionError, PlatformError
from repro.hw.msr import (
    ENERGY_COUNTER_MASK,
    MSRDef,
    MSRFile,
    U64_MASK,
    read_energy_delta,
)


@pytest.fixture
def msr():
    f = MSRFile(4)
    f.register(MSRDef(0x10, "COUNTER"))
    f.register(MSRDef(0x199, "CTL", writable=True))
    f.register(MSRDef(0x611, "PKG", package_scope=True))
    return f


class TestRegistration:
    def test_register_and_read_reset_value(self):
        f = MSRFile(1)
        f.register(MSRDef(0x10, "X", reset_value=42))
        assert f.read(0, 0x10) == 42

    def test_double_register_rejected(self, msr):
        with pytest.raises(MSRAddressError):
            msr.register(MSRDef(0x10, "DUP"))

    def test_is_registered(self, msr):
        assert msr.is_registered(0x10)
        assert not msr.is_registered(0xDEAD)

    def test_definition_lookup(self, msr):
        assert msr.definition(0x199).name == "CTL"

    def test_definition_unknown_raises(self, msr):
        with pytest.raises(MSRAddressError):
            msr.definition(0xDEAD)

    def test_zero_cpus_rejected(self):
        with pytest.raises(PlatformError):
            MSRFile(0)


class TestAccess:
    def test_unimplemented_read_raises(self, msr):
        with pytest.raises(MSRAddressError):
            msr.read(0, 0xDEAD)

    def test_cpu_out_of_range(self, msr):
        with pytest.raises(MSRAddressError):
            msr.read(4, 0x10)

    def test_write_readback(self, msr):
        msr.write(1, 0x199, 0x1600)
        assert msr.read(1, 0x199) == 0x1600

    def test_write_is_per_cpu(self, msr):
        msr.write(0, 0x199, 1)
        msr.write(1, 0x199, 2)
        assert msr.read(0, 0x199) == 1
        assert msr.read(1, 0x199) == 2

    def test_read_only_write_rejected(self, msr):
        with pytest.raises(MSRPermissionError):
            msr.write(0, 0x10, 1)

    def test_oversized_write_rejected(self, msr):
        with pytest.raises(MSRPermissionError):
            msr.write(0, 0x199, 1 << 64)

    def test_negative_write_rejected(self, msr):
        with pytest.raises(MSRPermissionError):
            msr.write(0, 0x199, -1)

    def test_write_hook_invoked(self):
        calls = []
        f = MSRFile(2)
        f.register(MSRDef(0x20, "H", writable=True,
                          on_write=lambda cpu, v: calls.append((cpu, v))))
        f.write(1, 0x20, 99)
        assert calls == [(1, 99)]


class TestPackageScope:
    def test_shared_across_cpus(self, msr):
        msr.poke(0, 0x611, 1234)
        assert msr.read(3, 0x611) == 1234

    def test_poke_any_cpu_aliases(self, msr):
        msr.poke(2, 0x611, 77)
        assert msr.read(0, 0x611) == 77


class TestCounters:
    def test_poke_bypasses_read_only(self, msr):
        msr.poke(0, 0x10, 5)
        assert msr.read(0, 0x10) == 5

    def test_poke_masks_to_64_bits(self, msr):
        msr.poke(0, 0x10, (1 << 70) | 5)
        assert msr.read(0, 0x10) == 5

    def test_advance_counter(self, msr):
        msr.advance_counter(0, 0x10, 10)
        msr.advance_counter(0, 0x10, 5)
        assert msr.read(0, 0x10) == 15

    def test_advance_counter_wraps(self, msr):
        msr.poke(0, 0x10, ENERGY_COUNTER_MASK)
        msr.advance_counter(0, 0x10, 2, wrap_mask=ENERGY_COUNTER_MASK)
        assert msr.read(0, 0x10) == 1

    def test_advance_negative_rejected(self, msr):
        with pytest.raises(MSRPermissionError):
            msr.advance_counter(0, 0x10, -1)


class TestEnergyDelta:
    def test_simple_delta(self):
        assert read_energy_delta(100, 150) == 50

    def test_wraparound_delta(self):
        before = ENERGY_COUNTER_MASK - 10
        after = 5
        assert read_energy_delta(before, after) == 16

    def test_zero_delta(self):
        assert read_energy_delta(7, 7) == 0

    def test_u64_mask_constant(self):
        assert U64_MASK == (1 << 64) - 1


class TestSlots:
    def test_slots_alias_package_scope(self, msr):
        assert msr.slots(0x10) == [(0, 0x10), (1, 0x10), (2, 0x10), (3, 0x10)]
        assert msr.slots(0x611) == [(0, 0x611)] * 4

    def test_slots_reject_unregistered_address(self, msr):
        with pytest.raises(MSRAddressError):
            msr.slots(0xDEAD)

    def test_poke_slots_masks_like_poke(self, msr):
        msr.poke_slots(msr.slots(0x10), [(1 << 70) | 5, 7, 0, U64_MASK])
        assert [msr.read(cpu, 0x10) for cpu in range(4)] == [
            5, 7, 0, U64_MASK
        ]


def _poke_flush(chip):
    """The per-register publish ``Chip.flush_counters`` replaced: one
    validated ``poke`` per counter, kept as the oracle."""
    from repro.hw import msr as msrdef

    intel = chip.platform.vendor == "intel"
    pkg = msrdef.MSR_PKG_ENERGY_STATUS if intel else msrdef.MSR_AMD_PKG_ENERGY
    chip.msr.poke(0, pkg, chip.energy.package_energy_uj)
    for core in chip.cores:
        cpu = core.core_id
        chip.msr.poke(cpu, msrdef.IA32_APERF, int(chip._aperf_cycles[cpu]))
        chip.msr.poke(cpu, msrdef.IA32_MPERF, int(chip._mperf_cycles[cpu]))
        chip.msr.poke(
            cpu, msrdef.IA32_FIXED_CTR0, int(chip._instr_total[cpu])
        )
        if intel:
            chip.msr.poke(
                cpu,
                msrdef.IA32_PERF_STATUS,
                int(core.effective_mhz // 100.0) << 8,
            )
        else:
            chip.msr.poke(
                cpu,
                msrdef.MSR_AMD_PSTATE_STATUS,
                int(core.effective_mhz // 25.0),
            )
            chip.msr.poke(
                cpu, msrdef.MSR_AMD_CORE_ENERGY, chip.energy.core_energy_uj(cpu)
            )


def _loaded_chip(platform_name):
    from repro.hw.platform import get_platform
    from repro.sim.chip import Chip
    from repro.sim.core import BatchCoreLoad
    from repro.workloads.app import RunningApp
    from repro.workloads.spec import spec_app

    platform = get_platform(platform_name)
    chip = Chip(platform, tick_s=5e-3)
    ref = platform.reference_frequency_mhz
    for i, name in enumerate(["leela", "cactusBSSN", "omnetpp"]):
        chip.assign_load(
            i, BatchCoreLoad(RunningApp(spec_app(name), instance=i), ref)
        )
    chip.park(platform.n_cores - 1)
    return chip


class TestCounterPublish:
    @pytest.mark.parametrize("platform_name", ["skylake", "ryzen"])
    def test_flush_matches_per_register_pokes(self, platform_name):
        chips = [_loaded_chip(platform_name), _loaded_chip(platform_name)]
        for chip in chips:
            chip.advance_ticks(157)
            # a counter past 64 bits exercises the publish mask
            chip._aperf_cycles[1] = float(1 << 70) + 4096.0
        chips[0].flush_counters()
        _poke_flush(chips[1])
        published, oracle = (list(c.msr._values.items()) for c in chips)
        assert repr(published) == repr(oracle)
        assert all(type(value) is int for _, value in published)

    def test_unregistered_counter_raises_when_the_chip_is_built(self):
        from repro.hw import msr as msrdef
        from repro.hw.platform import get_platform
        from repro.sim.chip import Chip

        class MissingInstructionCounter(Chip):
            def _register_msrs(self):
                real = self.msr.register

                def register(msr_def):
                    if msr_def.address != msrdef.IA32_FIXED_CTR0:
                        real(msr_def)

                self.msr.register = register
                try:
                    super()._register_msrs()
                finally:
                    del self.msr.register

        with pytest.raises(MSRAddressError):
            MissingInstructionCounter(get_platform("skylake"))
