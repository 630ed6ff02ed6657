"""Page-colouring allocator tests."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (ReferencePartition, colour_of_frame, pool_pages,
                     pools_cache_disjoint)
from tcsim.colouring import ColourPartition, OverlappingColours, PoolExhausted
from tcsim.kernel import CannotDestroyInitial, KernelParams, Simulator, SwitchConfig
from tcsim.microarch import CacheGeometry, colour_count
from tcsim.profiles import get_profile
from tcsim.scenarios import RECEIVER, SENDER

KIB = 1024
MIB = 1024 * KIB
PAGE = 4096
LLC = CacheGeometry(8 * MIB, 16, 64, "physical")  # 128 colours
L2 = CacheGeometry(256 * KIB, 8, 64, "physical")   # 8 colours


def partition(frames, geometry, assignment, boot=0):
    return ColourPartition(frames, colour_count(geometry, PAGE), boot, assignment)


def colour(page, geometry=L2):
    return colour_of_frame(page * PAGE, geometry, PAGE)


class TestColourOfFrame:
    def test_address_zero_is_colour_zero(self):
        assert colour_of_frame(0, LLC, PAGE) == 0
        assert colour_of_frame(0, L2, PAGE) == 0

    def test_wraps_at_colour_count(self):
        assert colour_count(LLC, PAGE) == 128
        assert colour_of_frame(PAGE * 128, LLC, PAGE) == 0

    def test_plain_index_arithmetic(self):
        assert colour_of_frame(PAGE * 5, LLC, PAGE) == 5

    def test_rejects_virtual_geometry(self):
        l1 = CacheGeometry(32 * KIB, 8, 64, "virtual")
        with pytest.raises(ValueError):
            colour_of_frame(0, l1, PAGE)

    def test_rejects_unaligned(self):
        with pytest.raises(ValueError):
            colour_of_frame(123, LLC, PAGE)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_periodicity(self, page_no):
        period = colour_count(LLC, PAGE) * PAGE
        addr = page_no * PAGE
        assert colour_of_frame(addr, LLC, PAGE) == colour_of_frame(addr + period, LLC, PAGE)


class TestPartitionPool:
    def test_even_split_of_contiguous_frames(self):
        part = partition(1024, LLC, {"a": set(range(64)), "b": set(range(64, 128))})
        assert part.pool_size("a") == 512
        assert part.pool_size("b") == 512
        assert part.pool_size(None) == 0

    def test_single_domain_owns_everything(self):
        part = partition(256, LLC, {"a": set(range(128))})
        assert part.pool_size("a") == 256

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingColours):
            partition(0, L2, {"a": {0, 1}, "b": {1, 2}})

    def test_unassigned_colours_go_to_reserve(self):
        part = partition(256, L2, {"a": {0, 1}})
        assert part.pool_size("a") == 64
        assert part.pool_size(None) == 192

    @given(st.integers(1, 200), st.integers(0, 6), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_conservation(self, n_frames, split, boot):
        a = set(range(split))
        b = set(range(split, 8))
        part = partition(n_frames, L2, {"a": a, "b": b}, boot)
        routed = pool_pages(part, "a") + pool_pages(part, "b") + pool_pages(part, None)
        assert Counter(routed) == Counter(range(n_frames))
        assert all(colour(p) in a for p in pool_pages(part, "a"))
        assert all(colour(p) in b for p in pool_pages(part, "b"))
        assert set(range(min(boot, n_frames))) <= set(pool_pages(part, None))


class TestAllocate:
    def test_exhaustion(self):
        part = partition(8, L2, {"a": {0}})
        assert part.pool_size("a") == 1
        part.allocate("a")
        with pytest.raises(PoolExhausted):
            part.allocate("a")

    def test_colour_filter(self):
        part = partition(64, L2, {"a": {2, 3}})
        assert colour(part.allocate("a", colour=3)[0]) == 3
        with pytest.raises(PoolExhausted):
            part.allocate("a", colour=5)  # not owned

    def test_allocations_respect_colour_set(self):
        part = partition(2048, LLC, {"a": set(range(64))})
        assert all(colour(p, LLC) < 64 for p in part.allocate("a", 1000))

    def test_failed_request_takes_nothing(self):
        # 24 pages of 8 colours: colour 0 holds pages 0, 8 and 16
        part = partition(24, L2, {"a": {0}})
        before = pool_pages(part, "a")
        with pytest.raises(PoolExhausted, match="no frame left for a"):
            part.allocate("a", 5)
        assert pool_pages(part, "a") == before == [0, 8, 16]
        assert part.allocate("a", 3) == [0, 8, 16]

    def test_failed_colour_request_takes_nothing(self):
        part = partition(24, L2, {"a": {1, 2}}, boot=4)
        before = pool_pages(part, "a"), pool_pages(part, None)
        with pytest.raises(PoolExhausted, match="no colour-2 frame left for a"):
            part.allocate("a", 4, colour=2)
        with pytest.raises(PoolExhausted, match="no colour-3 frame left for reserve"):
            part.allocate(None, 4, colour=3)  # boot page 3, then 11 and 19
        assert (pool_pages(part, "a"), pool_pages(part, None)) == before
        assert part.allocate(None, 3, colour=3) == [3, 11, 19]

    def test_release_returns_frames(self):
        part = partition(64, L2, {"a": {0, 1}})
        before = part.pool_size("a")
        pages = part.allocate("a", 5)
        part.release("a", pages)
        assert part.pool_size("a") == before

    def test_cross_domain_cache_disjointness_brute_force(self):
        # every pair of frames allocated to different domains maps to
        # disjoint partitioned-cache sets
        part = partition(512, L2, {"a": {0, 1, 2, 3}, "b": {4, 5, 6, 7}})
        got_a = part.allocate("a", 50)
        got_b = part.allocate("b", 50)
        assert pools_cache_disjoint(got_a, got_b, L2, PAGE)

    def test_l2_colouring_implicitly_partitions_llc(self):
        # disjoint colours of the small L2 imply disjoint set reach in the
        # much larger LLC, because the L2 colour is the low bits of the
        # LLC colour
        part = partition(1024, L2, {"a": {0, 1, 2, 3}, "b": {4, 5, 6, 7}})
        got_a = part.allocate("a", 60)
        got_b = part.allocate("b", 60)
        assert pools_cache_disjoint(got_a, got_b, LLC, PAGE)

    def test_reserve_allocation(self):
        part = partition(64, L2, {"a": {0}})
        assert colour(part.allocate(None, colour=5)[0]) == 5

    def test_boot_pages_head_the_reserve_newest_first(self):
        part = partition(64, L2, {"a": set(range(8))}, boot=20)
        assert part.allocate(None, 3, colour=3) == [19, 11, 3]
        with pytest.raises(PoolExhausted):
            part.allocate(None, colour=3)  # colour 3 past boot belongs to a
        assert part.allocate("a", colour=3) == [27]

    @given(frames=st.integers(0, 160), boot=st.integers(0, 24),
           requests=st.lists(st.tuples(st.integers(0, 6), st.none() | st.integers(0, 9)),
                             max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_uncoloured_domain_draws_what_the_reserve_would(self, frames, boot, requests):
        assignment = {"a": set(), "b": {4, 5, 6, 7}}
        got, want = (partition(frames, L2, assignment, boot) for _ in range(2))
        for n, c in requests:
            outcomes = []
            for part, dom in ((got, "a"), (want, None)):
                try:
                    outcomes.append(part.allocate(dom, n, c))
                except PoolExhausted as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        assert got.pool_size("a") == want.pool_size(None)


def drain(part, domains):
    """Every page left, pool by pool, in allocation order."""
    out = []
    for dom in [*domains, None]:
        while True:
            try:
                out += part.allocate(dom)
            except PoolExhausted:
                break
    return out


def pool_lists(part) -> dict:
    """Every pool, the reserve included, as page numbers per non-empty
    colour in allocation order."""
    domains = [*part.pools, None]
    if isinstance(part, ReferencePartition):
        return {d: part.page_lists(d) for d in domains}
    return {d: {c: list(q) for c, q in sorted((part.reserve if d is None
                                                else part.pools[d]).items()) if q}
            for d in domains}


class TestAgainstReference:
    """The page-number pools against the Frame-based allocator they
    replaced: the same pages in the same order, and PoolExhausted at the
    same points."""

    @pytest.mark.parametrize("profile", ["haswell", "sabre"])
    @pytest.mark.parametrize("coloured", [False, True])
    def test_scenario_sized_pools_match(self, profile, coloured):
        p = get_profile(profile)
        colours = colour_count(p.geometries[p.partitioned_cache], p.page_bytes)
        half = colours // 2
        assignment = {SENDER: set(range(half)), RECEIVER: set(range(half, colours))} \
            if coloured else {SENDER: set(), RECEIVER: set()}
        boot = KernelParams().image_frames + 1
        got = ColourPartition(4096, colours, boot, assignment)
        want = ReferencePartition(4096, colours, boot, assignment, p.page_bytes)
        assert drain(got, [SENDER, RECEIVER]) == drain(want, [SENDER, RECEIVER])

    OPS = st.lists(st.one_of(
        st.tuples(st.just("allocate"), st.sampled_from([SENDER, RECEIVER, None]),
                  st.integers(0, 6), st.none() | st.integers(0, 9)),
        st.tuples(st.just("release"), st.integers(0, 99)),
        st.tuples(st.just("clone"), st.sampled_from([SENDER, RECEIVER])),
        st.tuples(st.just("destroy"), st.integers(0, 99)),
    ), max_size=30)

    @given(frames=st.integers(0, 160), colours=st.integers(1, 8),
           boot=st.integers(0, 24), coloured=st.booleans(),
           owners=st.lists(st.sampled_from([SENDER, RECEIVER, None]),
                           min_size=8, max_size=8),
           ops=OPS)
    @settings(max_examples=150, deadline=None)
    def test_same_pages_and_exhaustion(self, frames, colours, boot, coloured, owners, ops):
        # uncoloured: every page in the reserve, as in the raw and full_flush
        # scenarios; coloured: any split, including a domain with no colours
        assignment = {d: {c for c in range(colours) if coloured and owners[c] == d}
                      for d in (SENDER, RECEIVER)}
        kp = KernelParams(code_frames=2, data_frames=1, stack_frames=1)
        profile = get_profile("sabre")
        sims = []
        for cls in (ColourPartition, ReferencePartition):
            part = cls(frames, colours, boot, assignment)
            try:
                sim = Simulator(profile, profile.build_machine(), part,
                                SwitchConfig(), kp)
            except PoolExhausted as exc:
                sims.append(str(exc))
                continue
            for d in (SENDER, RECEIVER):
                sim.add_domain(d)
            sims.append(sim)
        if any(isinstance(s, str) for s in sims):
            assert sims[0] == sims[1]  # the boot image could not be built
            return
        held = []  # (pool, pages) drawn directly, not yet released

        def apply(sim, op):
            part = sim.partition
            if op[0] == "allocate":
                return part.allocate(op[1], op[2], op[3])
            if op[0] == "release":
                pool, pages = held[op[1] % len(held)]
                part.release(pool, pages)
                return pages
            if op[0] == "clone":
                image = sim.clone_kernel(sim.initial_image.id, op[1])
                return [image, *sim.images[image].frames]
            ids = sorted(sim.images)
            sim.destroy_kernel(ids[op[1] % len(ids)])
            return ids

        for op in ops:
            if op[0] == "release" and not held:
                continue
            results = []
            for sim in sims:
                try:
                    results.append(apply(sim, op))
                except (PoolExhausted, CannotDestroyInitial) as exc:
                    results.append((type(exc), str(exc)))
            assert results[0] == results[1], op
            # pools equal after every op, so a failed request that kept part
            # of what it took would show here
            assert pool_lists(sims[0].partition) == pool_lists(sims[1].partition), op
            if op[0] == "release":
                held.pop(op[1] % len(held))
            elif op[0] == "allocate" and isinstance(results[0], list):
                held.append((op[1], results[0]))
        assert drain(sims[0].partition, [SENDER, RECEIVER]) == \
            drain(sims[1].partition, [SENDER, RECEIVER])
