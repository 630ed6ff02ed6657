"""Kernel model tests: cloning, IRQ ownership, the switch sequence, padding,
prefetch determinism, and destruction round-trips."""

from collections import Counter

import pytest

from oracles import pools_cache_disjoint
from tcsim.colouring import PoolExhausted
from tcsim.kernel import (SHARED_REGION_NAMES, CannotDestroyInitial,
                          InvalidImage, InvalidSource, KernelParams, PadOverrun)
from tcsim.profiles import get_profile
from tcsim.scenarios import (ON_CORE_RESOURCES, RECEIVER, SENDER, build_scenario,
                             split_colours)

HASWELL = get_profile("haswell")


def protected():
    return build_scenario(HASWELL, "protected").sim


def raw():
    return build_scenario(HASWELL, "raw").sim


class TestSplitColours:
    def test_even(self):
        assert split_colours(8, (50, 50)) == ({0, 1, 2, 3}, {4, 5, 6, 7})

    def test_uneven_floor_for_larger_share(self):
        a, b = split_colours(8, (75, 25))
        assert (len(a), len(b)) == (6, 2)
        a, b = split_colours(8, (25, 75))
        assert (len(a), len(b)) == (2, 6)

    def test_both_domains_keep_a_colour(self):
        a, b = split_colours(2, (99, 1))
        assert len(a) == 1 and len(b) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            split_colours(8, (60, 30))


class TestSharedData:
    def test_region_enumeration(self):
        sim = protected()
        assert len(sim.shared.regions) == len(SHARED_REGION_NAMES) == 11
        line = HASWELL.line_bytes
        addrs = sorted(sim.shared.regions.values())
        assert all(a % line == 0 for a in addrs)
        assert len(set(addrs)) == len(addrs)


class TestClone:
    def test_clone_frames_match_owner_colours(self):
        sim = protected()
        image = sim.images[sim.domains[SENDER].kernel_image]
        colours = sim.domains[SENDER].colours
        assert image.frames
        assert all(f.colour in colours for f in image.frames)

    def test_two_clones_cache_disjoint(self):
        sim = protected()
        a = sim.images[sim.domains[SENDER].kernel_image]
        b = sim.images[sim.domains[RECEIVER].kernel_image]
        geometry = HASWELL.geometries[HASWELL.partitioned_cache]
        assert pools_cache_disjoint(a.frames, b.frames, geometry, HASWELL.page_bytes)

    def test_clone_with_exhausted_pool(self):
        system = build_scenario(HASWELL, "protected", frames=1024)
        sim = system.sim
        while True:  # drain the sender pool
            try:
                sim.partition.allocate_frame(SENDER)
            except PoolExhausted:
                break
        with pytest.raises(PoolExhausted):
            sim.clone_kernel(sim.initial_image.id, SENDER)

    def test_clone_requires_valid_source(self):
        sim = protected()
        with pytest.raises(InvalidSource):
            sim.clone_kernel(999, SENDER)

    def test_clone_switches_syscall_handling(self):
        sim = protected()
        assert sim.domains[SENDER].kernel_image != sim.initial_image.id


class TestIrqOwnership:
    def test_last_writer_wins(self):
        sim = protected()
        img_a = sim.domains[SENDER].kernel_image
        img_b = sim.domains[RECEIVER].kernel_image
        sim.set_irq_owner(5, img_a)
        sim.set_irq_owner(5, img_b)
        assert 5 not in sim.images[img_a].owned_irqs
        assert 5 in sim.images[img_b].owned_irqs

    def test_invalid_image(self):
        sim = protected()
        with pytest.raises(InvalidImage):
            sim.set_irq_owner(5, 1234)

    def test_unassigned_irq_never_unmasked_when_partitioned(self):
        sim = protected()
        sim.irqs.ensure(9)
        for _ in range(4):
            sim.domain_switch(RECEIVER)
            sim.domain_switch(SENDER)
        assert 9 not in sim.irqs.unmasked()

    def test_mask_subset_invariant_through_switches(self):
        sim = protected()
        sim.set_irq_owner(3, sim.domains[SENDER].kernel_image)
        sim.set_irq_owner(4, sim.domains[RECEIVER].kernel_image)
        for _ in range(6):
            sim.domain_switch(RECEIVER)
            assert sim.check_irq_invariant()
            sim.domain_switch(SENDER)
            assert sim.check_irq_invariant()
        assert sim.irq_checks > 0 and sim.irq_violations == 0

    def test_config_supplied_ownership_map(self):
        system = build_scenario(HASWELL, "protected", irq_owners=((5, SENDER),))
        sim = system.sim
        assert 5 in sim.images[sim.domains[SENDER].kernel_image].owned_irqs

    def test_destroyed_image_orphans_irqs(self):
        sim = protected()
        img = sim.domains[SENDER].kernel_image
        sim.set_irq_owner(7, img)
        sim.destroy_kernel(img)
        assert sim.irqs.irqs[7].owner_image is None
        assert 7 not in sim.irqs.unmasked()


class TestDomainSwitch:
    def test_same_kernel_switch_steps(self):
        sim = raw()
        sim.domain_switch(RECEIVER)
        trace = sim.domain_switch(SENDER)
        assert not trace.kernel_switch
        assert trace.step_numbers() == [1, 2, 5, 6, 12]

    def test_kernel_switch_steps_in_order(self):
        sim = protected()
        trace = sim.domain_switch(RECEIVER)
        assert trace.kernel_switch
        assert trace.step_numbers() == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]

    def test_padding_absorbs_flush_variance(self):
        sim = protected()
        l1d = sim.machine.cache("l1d")
        totals = []
        for it, dirty in enumerate((0, 100, 400)):
            sim.domain_switch(SENDER)
            for i in range(dirty):
                addr = 0x100000 + i * 64
                l1d.access(SENDER, addr, addr, "write")
            totals.append(sim.domain_switch(RECEIVER).total_elapsed)
        assert totals[0] == totals[1] == totals[2]

    def test_unpadded_switch_varies_with_dirty_lines(self):
        system = build_scenario(HASWELL, "protected", pad_cycles=0)
        sim = system.sim
        totals = []
        for dirty in (0, 100, 400):
            sim.domain_switch(SENDER)
            for i in range(dirty):
                addr = 0x100000 + i * 64
                sim.machine.cache("l1d").access(SENDER, addr, addr, "write")
            totals.append(sim.domain_switch(RECEIVER).total_elapsed)
        assert totals[0] < totals[1] < totals[2]

    def test_pad_overrun_surfaces(self):
        system = build_scenario(HASWELL, "protected", pad_cycles=10)
        sim = system.sim
        with pytest.raises(PadOverrun):
            sim.domain_switch(RECEIVER)

    def test_flush_targets_cleared(self):
        sim = protected()
        l1d = sim.machine.cache("l1d")
        for i in range(50):
            l1d.access(SENDER, i * 64, i * 64, "write")
        sim.domain_switch(RECEIVER)
        line = l1d.geometry.line_bytes
        shared_tags = {addr // line for addr in sim.shared.regions.values()}
        assert all(tag in shared_tags for ways in l1d.sets for tag in ways)

    def test_prefetch_makes_shared_data_resident(self):
        sim = protected()
        sim.domain_switch(RECEIVER)
        machine = sim.machine
        for addr in sim.shared.regions.values():
            assert machine.data_path.levels[0].lookup(addr, addr)
            first = machine.data_access("kernel", addr, addr)
            assert first == machine.latency.params("l1d").hit_cycles

    def test_total_elapsed_is_pad_plus_post(self):
        sim = protected()
        kp = sim.kparams
        trace = sim.domain_switch(RECEIVER)
        assert trace.total_elapsed == sim.cfg.pad_cycles + kp.timer_cycles + kp.return_cycles

    def test_padding_determinism_across_history(self):
        # two sims with very different interleavings give one constant
        sim1, sim2 = protected(), protected()
        t1 = [sim1.domain_switch(d).total_elapsed
              for d in (RECEIVER, SENDER, RECEIVER, SENDER)]
        sim2.syscall(SENDER, "Signal")
        sim2.domain_switch(RECEIVER)
        t2 = [sim2.domain_switch(d).total_elapsed
              for d in (SENDER, RECEIVER, SENDER)]
        assert set(t1) == set(t2) and len(set(t1)) == 1


class TestSyscall:
    def test_idle_touches_nothing(self):
        sim = raw()
        assert sim.syscall(SENDER, "Idle") == 0

    def test_second_call_all_hits(self):
        sim = raw()
        sim.syscall(SENDER, "Signal")
        second = sim.syscall(SENDER, "Signal")
        hit = sim.machine.latency.params("l1d").hit_cycles
        count = sim.kparams.syscall_footprints["Signal"]
        assert second == count * hit

    def test_footprints_distinct(self):
        fp = KernelParams().syscall_footprints
        assert len(set(fp.values())) == 4
        assert fp["Idle"] == 0

    def test_wrong_domain_rejected(self):
        sim = raw()
        with pytest.raises(ValueError):
            sim.syscall(RECEIVER, "Signal")


class TestDestroy:
    def test_initial_is_undestroyable(self):
        sim = protected()
        with pytest.raises(CannotDestroyInitial):
            sim.destroy_kernel(sim.initial_image.id)

    def test_frames_conserved_through_destroy(self):
        sim = protected()
        img_id = sim.domains[SENDER].kernel_image
        frames = sim.images[img_id].frames
        before = Counter(f.phys_addr for f in sim.partition.pool_frames(SENDER))
        expected = before + Counter(f.phys_addr for f in frames)
        sim.destroy_kernel(img_id)
        after = Counter(f.phys_addr for f in sim.partition.pool_frames(SENDER))
        assert after == expected
        assert sim.domains[SENDER].kernel_image == sim.initial_image.id
        assert all(t.suspended for t in sim.domains[SENDER].threads)

    def test_destroy_then_clone_again(self):
        sim = protected()
        img_id = sim.domains[SENDER].kernel_image
        n_frames = len(sim.images[img_id].frames)
        sim.destroy_kernel(img_id)
        new_id = sim.clone_kernel(sim.initial_image.id, SENDER)
        assert len(sim.images[new_id].frames) == n_frames

    def test_destroy_unknown_image(self):
        sim = protected()
        with pytest.raises(InvalidImage):
            sim.destroy_kernel(424242)


class TestWorstCaseBound:
    def test_auto_pad_covers_fully_dirty_flush(self):
        system = build_scenario(HASWELL, "protected")
        sim = system.sim
        l1d = sim.machine.cache("l1d")
        sim.domain_switch(RECEIVER)
        sim.domain_switch(SENDER)
        for i in range(l1d.geometry.lines):  # every line dirty
            addr = 0x4000000 + (i * 64)
            l1d.access(SENDER, addr, addr, "write")
        trace = sim.domain_switch(RECEIVER)  # must not overrun
        assert trace.pad_cycles >= trace.natural_cycles

    def test_scenario_flush_targets(self):
        assert build_scenario(HASWELL, "raw").sim.cfg.flush_targets == ()
        full = build_scenario(HASWELL, "full_flush").sim.cfg.flush_targets
        assert set(full) == {"l1d", "l1i", "tlb", "btb", "bhb", "l2", "llc"}
        prot = build_scenario(HASWELL, "protected").sim.cfg.flush_targets
        assert set(prot) == set(ON_CORE_RESOURCES)
