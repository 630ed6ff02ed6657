"""Kernel model tests: cloning, IRQ ownership, the switch sequence, padding,
prefetch determinism, and destruction round-trips."""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (colour_of_frame, pool_pages, pools_cache_disjoint,
                     reference_code_lines, reference_domain_switch, step_numbers)
from tcsim.colouring import ColourPartition, PoolExhausted
from tcsim.kernel import (SHARED_REGION_NAMES, CannotDestroyInitial,
                          InvalidImage, InvalidSource, KernelParams, PadOverrun,
                          Simulator, SwitchConfig, worst_case_switch_cost)
from tcsim.microarch import colour_count
from tcsim.profiles import get_profile
from tcsim.scenarios import (ON_CORE_RESOURCES, RECEIVER, SENDER, build_scenario,
                             pad_for, split_colours)

HASWELL = get_profile("haswell")
L2 = HASWELL.geometries["l2"]


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
        assert len(sim.shared_regions) == len(SHARED_REGION_NAMES) == 11
        line = HASWELL.line_bytes
        addrs = sorted(sim.shared_regions.values())
        assert all(a % line == 0 for a in addrs)
        assert len(set(addrs)) == len(addrs)


class TestClone:
    def test_clone_frames_match_owner_colours(self):
        sim = protected()
        image = sim.images[sim.domains[SENDER].kernel_image]
        colours = sim.partition.domain_colours[SENDER]
        assert image.frames
        assert all(colour_of_frame(f * HASWELL.page_bytes, L2, HASWELL.page_bytes) in colours
                   for f in image.frames)

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
                sim.partition.allocate(SENDER)
            except PoolExhausted:
                break
        with pytest.raises(PoolExhausted):
            sim.clone_kernel(sim.initial_image.id, SENDER)

    def test_clone_one_frame_short_takes_nothing(self):
        # a clone is all or nothing: one frame short of an image, the
        # sender's pool, the images and the sender's kernel stay as they were
        sim = build_scenario(HASWELL, "protected", frames=1024).sim
        left = sim.kparams.image_frames - 1
        sim.partition.allocate(SENDER, sim.partition.pool_size(SENDER) - left)
        images, image_id = dict(sim.images), sim.domains[SENDER].kernel_image
        with pytest.raises(PoolExhausted):
            sim.clone_kernel(sim.initial_image.id, SENDER)
        assert sim.partition.pool_size(SENDER) == left
        assert sim.images == images and sim.domains[SENDER].kernel_image == image_id

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
        for _ in range(4):
            sim.domain_switch(RECEIVER)
            assert not sim.irq_fires(9)
            sim.domain_switch(SENDER)
            assert not sim.irq_fires(9)
        assert 9 not in sim.unmasked_irqs()

    def test_unassigned_irq_live_when_unpartitioned(self):
        for sim in (raw(), build_scenario(HASWELL, "full_flush").sim):
            for domain in (RECEIVER, SENDER):
                sim.domain_switch(domain)
                assert sim.irq_fires(9)

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

    def test_unowned_unmasked_irq_violates_every_step_until_overrun(self):
        sim = build_scenario(HASWELL, "protected", pad_cycles=10).sim
        sim.irq_masked[9] = False  # owned by no image
        with pytest.raises(PadOverrun):
            sim.domain_switch(RECEIVER)
        # steps 1-9 ran before the pad check raised; each counts once
        assert sim.irq_checks == sim.irq_violations == 9

    def test_unmasked_irq_of_next_image_violates_until_the_domain_changes(self):
        sim = protected()
        sim.set_irq_owner(4, sim.domains[RECEIVER].kernel_image)
        sim.irq_masked[4] = False  # unmasked while the sender runs
        sim.domain_switch(RECEIVER)
        # steps 1-4 run on the sender's image, steps 5-12 on the receiver's
        assert (sim.irq_checks, sim.irq_violations) == (12, 4)

    def test_destroyed_image_orphans_irqs(self):
        sim = protected()
        img = sim.domains[SENDER].kernel_image
        sim.set_irq_owner(7, img)
        sim.destroy_kernel(img)
        assert not any(7 in image.owned_irqs for image in sim.images.values())
        assert 7 not in sim.unmasked_irqs()


class TestDomainSwitch:
    def test_same_kernel_switch_steps(self):
        sim = raw()
        sim.domain_switch(RECEIVER)
        trace = sim.domain_switch(SENDER)
        assert not trace.kernel_switch
        assert step_numbers(trace) == [1, 2, 5, 6, 12]

    def test_kernel_switch_steps_in_order(self):
        sim = protected()
        trace = sim.domain_switch(RECEIVER)
        assert trace.kernel_switch
        assert step_numbers(trace) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]

    def test_padding_absorbs_flush_variance(self):
        sim = protected()
        l1d = sim.machine.caches["l1d"]
        totals = []
        for it, dirty in enumerate((0, 100, 400)):
            sim.domain_switch(SENDER)
            for i in range(dirty):
                addr = 0x100000 + i * 64
                l1d.access(addr, addr, True)
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
                sim.machine.caches["l1d"].access(addr, addr, True)
            totals.append(sim.domain_switch(RECEIVER).total_elapsed)
        assert totals[0] < totals[1] < totals[2]

    def test_pad_overrun_surfaces(self):
        system = build_scenario(HASWELL, "protected", pad_cycles=10)
        sim = system.sim
        with pytest.raises(PadOverrun):
            sim.domain_switch(RECEIVER)

    def test_flush_targets_cleared(self):
        sim = protected()
        l1d = sim.machine.caches["l1d"]
        for i in range(50):
            l1d.access(i * 64, i * 64, True)
        sim.domain_switch(RECEIVER)
        line = l1d.geometry.line_bytes
        shared_tags = {addr // line for addr in sim.shared_regions.values()}
        assert all(tag in shared_tags for ways in l1d.sets.values() for tag in ways)

    def test_prefetch_makes_shared_data_resident(self):
        sim = protected()
        sim.domain_switch(RECEIVER)
        machine = sim.machine
        for addr in sim.shared_regions.values():
            assert machine.data_path.levels[0].lookup(addr, addr)
            first = machine.data_path.access(addr, addr)
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


_SWITCH_OPS = st.lists(st.one_of(
    st.tuples(st.just("switch"), st.sampled_from([SENDER, RECEIVER])),
    st.tuples(st.just("unmask"), st.integers(1, 3)),  # owned or not
    st.tuples(st.just("mask"), st.integers(1, 3)),
    st.tuples(st.just("own"), st.integers(1, 3), st.sampled_from([SENDER, RECEIVER])),
    st.tuples(st.just("pad"), st.sampled_from([0, 10, "auto"])),  # 10 overruns
    # lines from a start line at a stride of 1 line, or of 64 (one L1 set)
    st.tuples(st.just("write"), st.integers(0, 255), st.integers(1, 24),
              st.sampled_from([1, 64])),
    st.tuples(st.just("fetch"), st.integers(0, 255), st.integers(1, 24),
              st.sampled_from([1, 64])),
    st.tuples(st.just("branch"), st.integers(0, 255), st.booleans()),
), max_size=16)


def _apply_switch_op(sim, switch, op):
    """Apply one op of _SWITCH_OPS; return what it shows of the simulator.
    ``write`` dirties lines down the data path, ``fetch`` fills L1-I and TLB
    lines, and ``branch`` trains the predictor, so that switches write back,
    flush and prefetch over varied state."""
    outcome = None
    machine = sim.machine
    if op[0] == "switch":
        try:
            outcome = switch(sim, op[1])
        except PadOverrun as e:
            outcome = str(e)
    elif op[0] in ("unmask", "mask"):
        sim.irq_masked[op[1]] = op[0] == "mask"
    elif op[0] == "own":
        sim.set_irq_owner(op[1], sim.domains[op[2]].kernel_image)
    elif op[0] == "pad":
        worst = worst_case_switch_cost(sim.machine, sim.kparams, sim.cfg.flush_targets)
        pad = pad_for(worst, 5.0) if op[1] == "auto" else op[1]
        sim.cfg = replace(sim.cfg, pad_cycles=pad)
    elif op[0] == "branch":
        outcome = machine.predictor.touch(op[1] * 4, op[2])
    else:
        _, start, count, stride = op
        lines = [(start + i * stride) * HASWELL.line_bytes for i in range(count)]
        if op[0] == "write":
            outcome = [machine.data_path.access(a, a, True) for a in lines]
        else:
            outcome = [(machine.caches["l1i"].access(a, a), machine.caches["tlb"].access(a, a))
                       for a in lines]
    return (outcome, sim.irq_checks, sim.irq_violations,
            sim.current_domain, sim.unmasked_irqs())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["raw", "full_flush", "protected"]), _SWITCH_OPS)
def test_switch_matches_per_step_irq_reference(scenario, ops):
    """domain_switch resolves its region lines once, sums its costs without
    per-step helpers and evaluates the IRQ invariant once per run of steps
    on each side of the domain change; its traces, counts and machine state
    must equal those of the per-step reference, PadOverrun included."""
    fast, ref = (build_scenario(HASWELL, scenario).sim for _ in range(2))
    for op in ops:
        assert _apply_switch_op(fast, Simulator.domain_switch, op) \
            == _apply_switch_op(ref, reference_domain_switch, op)
    for name, cache in fast.machine.caches.items():
        assert cache.snapshot() == ref.machine.caches[name].snapshot()
        assert cache._occupied == ref.machine.caches[name]._occupied
    fast_p, ref_p = fast.machine.predictor, ref.machine.predictor
    assert (fast_p.history, fast_p.counters) == (ref_p.history, ref_p.counters)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["haswell", "sabre"]), st.sampled_from(["full_flush", "protected"]),
       _SWITCH_OPS)
def test_kernel_switch_stays_within_its_worst_case(profile, scenario, ops):
    """From any state the ops reach, a kernel switch's natural cost is within
    worst_case_switch_cost(), so an auto pad never overruns. Each switch is
    checked, and then one away and one back with the pad removed."""
    sim = build_scenario(get_profile(profile), scenario).sim
    worst = worst_case_switch_cost(sim.machine, sim.kparams, sim.cfg.flush_targets)
    naturals = []

    def switch(sim, domain):
        trace = Simulator.domain_switch(sim, domain)
        naturals.append(trace.natural_cycles)
        return trace

    for op in ops:
        _apply_switch_op(sim, switch, op)
    sim.cfg = replace(sim.cfg, pad_cycles=0)
    home = sim.current_domain
    assert switch(sim, RECEIVER if home == SENDER else SENDER).kernel_switch
    assert switch(sim, home).kernel_switch
    assert max(naturals) <= worst


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

    @pytest.mark.parametrize("name", ["haswell", "sabre"])
    def test_touches_the_first_code_lines_in_order(self, name):
        # every built-in footprint, one longer than a page, and one longer
        # than all of an image's code, on the boot image and on a clone
        profile = get_profile(name)
        code_lines = KernelParams().code_frames * profile.lines_per_page
        footprints = {**KernelParams().syscall_footprints,
                      "Page": profile.lines_per_page + 5, "All": code_lines + 3}
        kparams = KernelParams(syscall_footprints=footprints)
        colours = colour_count(profile.geometries[profile.partitioned_cache],
                               profile.page_bytes)
        partition = ColourPartition(4096, colours, kparams.image_frames + 1, {SENDER: set()})
        sim = Simulator(profile, profile.build_machine(), partition, SwitchConfig(), kparams)
        sim.add_domain(SENDER)
        data_path = sim.machine.data_path
        access, touched = data_path.access, []

        def record(vaddr, paddr, write=False):
            latency = access(vaddr, paddr, write)
            touched.append(((vaddr, paddr, write), latency))
            return latency

        data_path.access = record
        for clone in (False, True):
            if clone:
                sim.clone_kernel(sim.initial_image.id, SENDER)
            lines = reference_code_lines(sim.current_image(), profile, kparams)
            assert len(lines) == code_lines
            for which, count in footprints.items():
                touched.clear()
                latency = sim.syscall(SENDER, which)
                assert [a for a, _ in touched] == [(a, a, False) for a in lines[:count]]
                assert latency == sum(cycles for _, cycles in touched)


class TestDestroy:
    def test_initial_is_undestroyable(self):
        sim = protected()
        with pytest.raises(CannotDestroyInitial):
            sim.destroy_kernel(sim.initial_image.id)

    def test_frames_conserved_through_destroy(self):
        sim = protected()
        img_id = sim.domains[SENDER].kernel_image
        frames = sim.images[img_id].frames
        before = Counter(pool_pages(sim.partition, SENDER))
        expected = before + Counter(frames)
        sim.destroy_kernel(img_id)
        after = Counter(pool_pages(sim.partition, SENDER))
        assert after == expected
        assert sim.domains[SENDER].kernel_image == sim.initial_image.id
        assert sim.domains[SENDER].suspended

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
        l1d = sim.machine.caches["l1d"]
        sim.domain_switch(RECEIVER)
        sim.domain_switch(SENDER)
        for i in range(l1d.geometry.lines):  # every line dirty
            addr = 0x4000000 + (i * 64)
            l1d.access(addr, addr, True)
        trace = sim.domain_switch(RECEIVER)  # must not overrun
        assert sim.cfg.pad_cycles >= trace.natural_cycles

    def test_scenario_flush_targets(self):
        for name, shared in (("haswell", {"l2", "llc"}), ("sabre", {"l2"})):
            profile = get_profile(name)
            assert build_scenario(profile, "raw").sim.cfg.flush_targets == ()
            full = build_scenario(profile, "full_flush").sim.cfg.flush_targets
            assert set(full) == set(ON_CORE_RESOURCES) | shared
            prot = build_scenario(profile, "protected").sim.cfg.flush_targets
            assert set(prot) == set(ON_CORE_RESOURCES)


class TestPadRule:
    """A system is built with its final switch configuration: ``auto`` pads
    protected builds to the worst case plus the margin and no other build, a
    number pads any build to it, and 0 pads none."""

    @pytest.mark.parametrize("name", ["haswell", "sabre"])
    @pytest.mark.parametrize("scenario", ["raw", "full_flush", "protected"])
    @pytest.mark.parametrize("pad", ["auto", 0, 12345])
    def test_built_switch_config(self, name, scenario, pad):
        profile = get_profile(name)
        cfg = build_scenario(profile, scenario, pad_cycles=pad, irq_margin_pct=7.5).sim.cfg
        shared = {"haswell": ("l2", "llc"), "sabre": ("l2",)}[name]
        targets = {"raw": (), "full_flush": ON_CORE_RESOURCES + shared,
                   "protected": ON_CORE_RESOURCES}[scenario]
        assert sorted(cfg.flush_targets) == sorted(targets)
        assert cfg.prefetch_shared == cfg.partition_irqs == (scenario == "protected")
        if pad != "auto":
            assert cfg.pad_cycles == pad
        elif scenario == "protected":
            worst = worst_case_switch_cost(profile.build_machine(), KernelParams(), targets)
            assert cfg.pad_cycles == pad_for(worst, 7.5) > worst
        else:
            assert cfg.pad_cycles == 0

    @pytest.mark.parametrize("scenario", ["raw", "protected"])
    def test_negative_pad_rejected(self, scenario):
        with pytest.raises(ValueError, match="pad_cycles must be non-negative"):
            build_scenario(HASWELL, scenario, pad_cycles=-1)
