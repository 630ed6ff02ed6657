"""Cache, predictor and hierarchy model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (ReferenceGshare, ReferenceLru, dirty_line_count,
                     resident_everywhere, resident_line_count,
                     two_bit_counter_reference)
from tcsim.config import SCENARIOS
from tcsim.microarch import (CacheGeometry, CacheState, LatencyModel,
                             LatencyParams, Machine, MemoryHierarchy,
                             PredictorState, colour_count)
from tcsim.profiles import get_profile
from tcsim.scenarios import build_scenario

KIB = 1024
PARAMS = LatencyParams(hit_cycles=4, miss_cycles=12, writeback_cycles_per_line=6,
                       flush_base_cycles=100)


def small_cache(sets=4, ways=2, line=64, indexing="physical"):
    geo = CacheGeometry(sets * ways * line, ways, line, indexing)
    return CacheState(geo, PARAMS)


def ref_latency(params, hit, evicted):
    """Latency of one access to one level, from the reference's hit flag and
    evicted (tag, dirty) pair."""
    if hit:
        return params.hit_cycles
    dirty_eviction = evicted is not None and evicted[1]
    return params.miss_cycles + (params.writeback_cycles_per_line if dirty_eviction else 0)


class TestGeometry:
    def test_size_relation(self):
        geo = CacheGeometry(32 * KIB, 8, 64)
        assert geo.sets * geo.ways * geo.line_bytes == geo.size_bytes
        assert geo.sets == 64

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            CacheGeometry(3 * KIB, 8, 64)
        with pytest.raises(ValueError):
            CacheGeometry(32 * KIB, 3, 64)

    def test_rejects_bad_indexing(self):
        with pytest.raises(ValueError):
            CacheGeometry(32 * KIB, 8, 64, indexing="banana")

    def test_latency_params_validated(self):
        with pytest.raises(ValueError):
            LatencyParams(10, 10)
        with pytest.raises(ValueError):
            LatencyParams(-1, 5)


class TestColourCount:
    def test_l1_single_colour(self):
        # a 32 KiB 8-way cache with 4 KiB pages has exactly one colour
        assert colour_count(CacheGeometry(32 * KIB, 8, 64), 4096) == 1

    def test_big_llc(self):
        assert colour_count(CacheGeometry(8 * KIB * KIB, 16, 64), 4096) == 128

    def test_arm_l2(self):
        assert colour_count(CacheGeometry(KIB * KIB, 16, 32), 4096) == 16

    def test_page_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            colour_count(CacheGeometry(32 * KIB, 8, 64), 3000)


class TestAccess:
    def test_second_access_hits(self):
        c = small_cache()
        first = c.access(0x1000, 0x1000)
        again = c.access(0x1000, 0x1000)
        assert first == PARAMS.miss_cycles
        assert again == PARAMS.hit_cycles

    def test_lru_thrash(self):
        # ways+1 conflicting lines accessed round-robin miss every time
        c = small_cache(sets=4, ways=2)
        stride = 4 * 64  # one way
        addrs = [0x0, stride, 2 * stride]
        for _ in range(5):
            for a in addrs:
                assert c.access(a, a) == PARAMS.miss_cycles

    def test_dirty_eviction_charges_writeback(self):
        c = small_cache(sets=1, ways=2)
        c.access(0 * 64, 0 * 64, True)
        c.access(1 * 64, 1 * 64, True)
        latency = c.access(2 * 64, 2 * 64)
        assert latency == PARAMS.miss_cycles + PARAMS.writeback_cycles_per_line
        # the dirty LRU line 0 was evicted; line 2 is installed clean as MRU
        assert c.snapshot() == [[(1, True), (2, False)]]

    def test_write_marks_dirty_and_dirty_implies_valid(self):
        c = small_cache()
        c.access(0x40, 0x40, True)
        assert dirty_line_count(c) == 1
        assert c.lookup(0x40, 0x40)  # the dirty line is resident
        assert [pair for ways in c.snapshot() for pair in ways] == [(1, True)]

    def test_set_index_ignores_high_bits(self):
        c = small_cache(sets=4, ways=2)
        span = 4 * 64
        a, b = 0x40, 0x40 + 7 * span
        sa, _ = c.locate(a, a)
        sb, _ = c.locate(b, b)
        assert sa == sb

    def test_virtual_index_physical_tag(self):
        c = small_cache(indexing="virtual")
        c.access(0x1000, 0x8000)
        # same virtual address, different frame: same set, different tag
        assert c.access(0x1000, 0x9000) == PARAMS.miss_cycles
        sa, ta = c.locate(0x1000, 0x8000)
        sb, tb = c.locate(0x1000, 0x9000)
        assert sa == sb and ta != tb


def occupied_sets(cache):
    return {i for i, ways in cache.sets.items() if ways}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["physical", "virtual"]), st.sampled_from([(4, 2), (8, 4), (2, 8)]),
       st.integers(0, 7),
       st.lists(st.tuples(st.integers(0, 63) | st.integers(0, 3),
                          st.booleans()),
                min_size=1, max_size=200))
def test_access_matches_reference_lru(indexing, shape, offset, ops):
    # checked after every read and write; about half the accesses go to
    # four hot lines, so reads and writes often hit resident lines,
    # and ``offset`` lines of translation move the virtual index away from
    # the physical one
    sets, ways = shape
    c = small_cache(sets=sets, ways=ways, indexing=indexing)
    ref = ReferenceLru(sets, ways, 64)
    for line_no, write in ops:
        vaddr, paddr = (line_no + offset) * 64, line_no * 64
        index_addr = vaddr if indexing == "virtual" else paddr
        ref_hit, ref_evicted = ref.access(index_addr, paddr, write)
        latency = c.access(vaddr, paddr, write)
        assert (latency == PARAMS.hit_cycles) == ref_hit
        assert latency == ref_latency(PARAMS, ref_hit, ref_evicted)
        # resident tags, dirty bits and recency order; this pins the evicted
        # line as the one the reference evicted
        assert c.snapshot() == ref.snapshot()
        assert c._occupied == occupied_sets(c)
    assert dirty_line_count(c) == ref.dirty_count()
    assert resident_line_count(c) <= sets * ways


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.booleans()), max_size=150))
def test_determinism_and_residency_bound(ops):
    c1 = small_cache(sets=8, ways=2)
    c2 = small_cache(sets=8, ways=2)
    lat1 = [c1.access(ln * 64, ln * 64, w) for ln, w in ops]
    lat2 = [c2.access(ln * 64, ln * 64, w) for ln, w in ops]
    assert lat1 == lat2
    assert c1.snapshot() == c2.snapshot()
    assert resident_line_count(c1) <= 16
    for ways in c1.snapshot():
        tags = [tag for tag, _ in ways]
        assert len(tags) == len(set(tags))


# (sets, ways, indexing, latency) of up to three hierarchy levels
LEVEL_SHAPES = (
    (4, 2, "virtual", LatencyParams(4, 6, 6, 10)),
    (8, 4, "physical", LatencyParams(8, 12, 8, 20)),
    (16, 4, "physical", LatencyParams(20, 30, 10, 40)),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3),
       st.lists(st.tuples(st.integers(0, 47), st.booleans()), min_size=1, max_size=200))
def test_hierarchy_matches_reference_chain(depth, ops):
    # a chain of independent reference models with inclusive fill and no
    # back-invalidation: each level is accessed until one hits
    shapes = LEVEL_SHAPES[:depth]
    levels = [CacheState(CacheGeometry(s * w * 64, w, 64, idx), p) for s, w, idx, p in shapes]
    h = MemoryHierarchy(levels, memory_cycles=100)
    refs = [ReferenceLru(s, w, 64) for s, w, _, _ in shapes]
    for line_no, write in ops:
        paddr = line_no * 64
        vaddr = paddr + 7 * 64  # a translation that moves the virtual index
        expected = 0
        for (sets, _, idx, params), ref in zip(shapes, refs):
            index_addr = vaddr if idx == "virtual" else paddr
            hit, evicted = ref.access(index_addr, paddr, write)
            expected += ref_latency(params, hit, evicted)  # includes write-backs
            if hit:
                break
        else:
            expected += 100  # every level missed: memory
        assert h.access(vaddr, paddr, write) == expected
    for level, ref in zip(levels, refs):
        assert level.snapshot() == ref.snapshot()
        assert level._occupied == occupied_sets(level)


class TestFlush:
    def test_empty_flush_costs_base(self):
        c = small_cache()
        assert c.flush() == PARAMS.flush_base_cycles

    def test_flush_cost_counts_dirty_lines(self):
        c = small_cache(sets=8, ways=2)
        for i in range(5):
            c.access(i * 64, i * 64, True)  # five distinct sets
        cost = c.flush()
        assert cost == PARAMS.flush_base_cycles + 5 * PARAMS.writeback_cycles_per_line

    def test_double_flush_idempotent(self):
        c = small_cache()
        for i in range(7):
            c.access(i * 64, i * 64, True)
        c.flush()
        snap = c.snapshot()
        assert c.flush() == PARAMS.flush_base_cycles
        assert c.snapshot() == snap

    def test_flush_erases_history(self):
        c1, c2 = small_cache(), small_cache()
        for i in range(20):
            c1.access(i * 64, i * 64, True)
        c2.access(123 * 64, 123 * 64)
        c1.flush()
        c2.flush()
        assert c1.snapshot() == c2.snapshot()

    @given(st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_flush_cost_monotone_in_dirty_lines(self, k):
        big = small_cache(sets=64, ways=8)
        for i in range(k):
            big.access(i * 64, i * 64, True)
        more = small_cache(sets=64, ways=8)
        for i in range(k + 1):
            more.access(i * 64, i * 64, True)
        assert more.flush() >= big.flush()


class TestSparseSets:
    """A cache holds a set only once a fill has touched it."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_fresh_build_holds_no_llc_set(self, scenario):
        llc = build_scenario(get_profile("haswell"), scenario).sim.machine.caches["llc"]
        assert not llc.sets and not llc._occupied

    def test_lookup_adds_no_set(self):
        c = small_cache(sets=8, ways=2)
        c.access(0, 0)
        assert not any(c.lookup(a * 64, a * 64) for a in range(1, 8))
        assert c.lookup(0, 0) and list(c.sets) == [0]

    def test_observed_probe_adds_no_set_that_no_line_reaches(self):
        l1, l2 = small_cache(sets=4, ways=2), small_cache(sets=16, ways=2)
        hierarchy = MemoryHierarchy([l1, l2], memory_cycles=100)
        for a in (0, 64):  # resident in the L1 alone, so they never reach the L2
            l1.access(a, a)
        window = hierarchy.group([(a, a) for a in (0, 64, 384)])
        _, missing = hierarchy.probe(window, observe=l2)
        # all three lines were absent from the L2; only line 6's set was filled
        assert missing == 3 and list(l2.sets) == [6] and l2._occupied == {6}

    def test_flush_leaves_no_occupied_set(self):
        levels = [small_cache(sets=4, ways=2), small_cache(sets=16, ways=2)]
        hierarchy = MemoryHierarchy(levels, memory_cycles=100)
        for a in range(40):
            hierarchy.access(a * 64, a * 64, a % 2 == 0)
        for level, path in zip(levels, hierarchy._path):
            level.flush()
            assert not any(level.sets.values()) and not level._occupied
            assert path[0] is level.sets  # emptied in place: the hierarchy reads it still
        assert hierarchy.access(0, 0) == 100 + sum(lvl.params.miss_cycles for lvl in levels)
        assert all(lvl.lookup(0, 0) for lvl in levels)

    def test_snapshot_lists_every_set(self):
        c = small_cache(sets=8, ways=2)
        assert c.snapshot() == [[]] * 8 and not c.sets
        c.access(3 * 64, 3 * 64, True)
        assert c.snapshot() == [[]] * 3 + [[(3, True)]] + [[]] * 4
        assert list(c.sets) == [3]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("access"), st.integers(0, 255), st.booleans()),
    st.tuples(st.just("probe"), st.integers(0, 7), st.integers(0, 30))), max_size=120))
def test_flush_costs_dirty_lines_and_empties_every_set(ops):
    sets, ways = 8, 4
    c = small_cache(sets=sets, ways=ways)
    for op, a, b in ops:
        if op == "access":
            c.access(a * 64, a * 64, b)
        else:
            lines = [((b + j) * sets + a) * 64 for j in range(ways)]
            c.probe_groups(c.group([(x, x) for x in lines]))
    before = c.snapshot()
    dirty = sum(d for lines in before for _, d in lines)
    assert c.flush() == PARAMS.flush_base_cycles + PARAMS.writeback_cycles_per_line * dirty
    assert all(not lines for lines in c.snapshot())
    assert resident_line_count(c) == 0 and dirty_line_count(c) == 0


@pytest.mark.parametrize("profile", ["haswell", "sabre"])
@pytest.mark.parametrize("written", [False, True])
def test_every_profile_cache_flush_costs_base_plus_writebacks(profile, written):
    # every set filled and one line per set evicted; when written, every
    # third line is dirty, which write-back-free caches (TLB, BTB) ignore
    for cache in get_profile(profile).build_machine().caches.values():
        geo = cache.geometry
        for i in range(geo.lines + geo.sets):
            cache.access(i * geo.line_bytes, i * geo.line_bytes, written and i % 3 == 0)
        dirty = dirty_line_count(cache)
        assert (dirty > 0) == written
        assert cache.flush() == (cache.params.flush_base_cycles
                                 + cache.params.writeback_cycles_per_line * dirty)
        assert resident_line_count(cache) == 0 and not cache._occupied


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 7), min_size=1),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5), st.booleans()), max_size=60))
def test_reprobing_the_missed_set_equals_reprobing_every_set(spy, ops):
    # the rule the LLC side channel's sparse trace relies on: after a prime,
    # a foreign access changes a spy set only when it misses there, so
    # re-probing only that set gives what re-probing every spy set gives;
    # in exact LRU that re-probe misses on every line and primes the set again
    sets, ways = 8, 4
    every, missed = small_cache(sets=sets, ways=ways), small_cache(sets=sets, ways=ways)
    spy_sets = {s: every.group([((w * sets + s) * 64,) * 2 for w in range(ways)])
                for s in sorted(spy)}
    prime = [group for groups in spy_sets.values() for group in groups]
    every.probe_groups(prime)
    missed.probe_groups(prime)
    for set_idx, n, write in ops:
        addr = ((ways + n) * sets + set_idx) * 64  # six foreign lines per set
        latency = missed.access(addr, addr, write)
        assert every.access(addr, addr, write) == latency
        expected = dict.fromkeys(spy_sets, ways * PARAMS.hit_cycles)
        if latency != PARAMS.hit_cycles and set_idx in spy_sets:
            expected[set_idx] = missed.probe_groups(spy_sets[set_idx])
            assert expected[set_idx] == (ways * PARAMS.miss_cycles
                                         + write * PARAMS.writeback_cycles_per_line)
        assert {s: every.probe_groups(g) for s, g in spy_sets.items()} == expected
        assert every.snapshot() == missed.snapshot()


# (sets, ways) of the caches a grouped window is probed on
WINDOW_SHAPES = ((4, 2), (8, 4), (2, 8))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["physical", "virtual"]), st.sampled_from(WINDOW_SHAPES), st.data())
def test_grouped_probe_matches_sequential_access(indexing, shape, data):
    # three windows: a prime&probe-shaped one (way by way over the first
    # sets, at most one way more than the cache has), the same lines in
    # another order, and any lines (repeats allowed), probed between foreign
    # accesses (lines up to 63, clean or dirty) and flushes. Probing a
    # window twice reaches the untouched case, probing it after a flush the
    # empty one, and a foreign line, another order or an overflowing group
    # the walk. ``offset`` bytes into each line: a window line is known by
    # its tag alone. A tracked probe also collects the positions of the
    # lines that hit, as a hierarchy level does.
    sets, ways = shape
    n_ways, n_sets = data.draw(st.integers(1, ways + 1)), data.draw(st.integers(1, sets))
    base = [w * sets + s for w in range(n_ways) for s in range(n_sets)]
    windows = [base, data.draw(st.permutations(base)),
               data.draw(st.lists(st.integers(0, 39), max_size=24))]
    offset = data.draw(st.integers(0, 63))
    ops = data.draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(["probe", "track"]), st.integers(0, 2), st.booleans()),
        st.tuples(st.just("access"), st.integers(0, 63), st.booleans()),
        st.tuples(st.just("flush"), st.just(0), st.just(False))), max_size=30))
    grouped, sequential = (small_cache(sets, ways, indexing=indexing) for _ in range(2))
    addrs = [[line * 64 + offset for line in window] for window in windows]
    groups = [grouped.group([(x, x) for x in window]) for window in addrs]
    for op, a, write in ops:
        if op in ("probe", "track"):
            latencies = [sequential.access(x, x, write) for x in addrs[a]]
            hits = [] if op == "track" else None
            assert grouped.probe_groups(groups[a], write, hits) == sum(latencies)
            if hits is not None:
                assert sorted(hits) == [pos for pos, latency in enumerate(latencies)
                                        if latency == PARAMS.hit_cycles]
        elif op == "access":
            assert grouped.access(a * 64, a * 64, write) == sequential.access(a * 64, a * 64, write)
        else:
            assert grouped.flush() == sequential.flush()
        assert grouped.snapshot() == sequential.snapshot()
        assert grouped._occupied == occupied_sets(grouped) == sequential._occupied


class TestProbeGroups:
    def test_groups_keep_probe_order_per_set(self):
        c = small_cache(sets=4, ways=2)
        # line n sits in set n % 4 with tag n
        assert c.group([(64 * n + 3, 64 * n + 3) for n in (5, 1, 9, 2, 13)]) == [
            (1, [5, 1, 9, 13], True, [0, 1, 2, 4]), (2, [2], True, [3])]
        # a repeated line never streams
        assert c.group([(64, 64), (64, 64)]) == [(1, [1, 1], False, [0, 1])]

    def test_untouched_empty_and_walked_sets(self):
        c = small_cache(sets=4, ways=2)
        groups = c.group([(a, a) for a in (0, 64, 256, 320)])  # two lines in sets 0 and 1
        assert c.probe_groups(groups, True) == 4 * PARAMS.miss_cycles
        assert c.snapshot()[:2] == [[(0, True), (4, True)], [(1, True), (5, True)]]
        assert c.probe_groups(groups) == 4 * PARAMS.hit_cycles
        c.access(512, 512)  # line 8 displaces line 0 from set 0
        # set 0 misses twice, evicting dirty line 4 and then line 8; set 1 hits
        assert c.probe_groups(groups) == (
            2 * PARAMS.miss_cycles + PARAMS.writeback_cycles_per_line + 2 * PARAMS.hit_cycles)
        assert c.snapshot()[:2] == [[(0, False), (4, False)], [(1, True), (5, True)]]


def no_walk(*args):
    raise AssertionError("the set was walked")


class TestStreaming:
    # every case probes one set of a twin cache line by line too, and the
    # probed cache's ``access`` fails if called, so the set must stream

    def probe_both(self, ways, before, tags, write, level=True):
        # ``level``: probe as a hierarchy level does, collecting hits and
        # missing lines; else as a single cache's window
        c, seq = (small_cache(sets=4, ways=ways) for _ in range(2))
        for tag, w in before:
            c.access(tag * 64, tag * 64, w)
            seq.access(tag * 64, tag * 64, w)
        want = sum(seq.access(t * 64, t * 64, write) for t in tags)
        c.access = no_walk
        positions = list(range(len(tags)))
        hits, missing = ([], []) if level else (None, None)
        assert c.probe_groups([(0, tags, True, positions)], write, hits, None, missing) == want
        if level:
            assert hits == [] and missing == positions
        assert c.snapshot() == seq.snapshot()
        assert c._occupied == occupied_sets(c) == seq._occupied
        return want, c.snapshot()[0]

    def test_non_empty_disjoint_set(self):
        # set 0 holds lines 0 (dirty) and 4; three new lines push out the LRU line 0
        latency, final = self.probe_both(4, [(0, True), (4, False)], [8, 12, 16], False)
        assert latency == 3 * PARAMS.miss_cycles + PARAMS.writeback_cycles_per_line
        assert final == [(4, False), (8, False), (12, False), (16, False)]

    def test_later_tags_resident_still_miss(self):
        # lines 8 and 0 are resident but come after the first two (= ways)
        # tags of the group; the two misses before them have pushed them out
        latency, final = self.probe_both(2, [(8, False), (0, False)], [4, 12, 8, 0], False)
        assert latency == 4 * PARAMS.miss_cycles
        assert final == [(8, False), (0, False)]

    def test_write_group_evicts_dirty_entries(self):
        # old dirty line 0 and the group's own first two dirty lines are pushed out
        latency, final = self.probe_both(2, [(0, True)], [4, 8, 12, 16], True)
        assert latency == 4 * PARAMS.miss_cycles + 3 * PARAMS.writeback_cycles_per_line
        assert final == [(12, True), (16, True)]

    def test_resident_head_tags_cascade_out(self):
        # a full set, LRU first: 4, 8 (dirty), 12, 16. Line 4 (rank 0) is the
        # group's second tag and line 8 (rank 1) its third: the miss before
        # each pushes it out, so every line misses
        before = [(4, False), (8, True), (12, False), (16, False)]
        latency, final = self.probe_both(4, before, [20, 4, 8, 24], False, level=False)
        assert latency == 4 * PARAMS.miss_cycles + PARAMS.writeback_cycles_per_line
        assert final == [(20, False), (4, False), (8, False), (24, False)]

    def test_resident_tag_reached_in_time_walks(self):
        # line 8 sits at rank 1, the group's second tag: one miss pushes out
        # only line 4, so line 8 hits and the set must be walked
        c = small_cache(sets=4, ways=4)
        for tag in (4, 8, 12, 16):
            c.access(tag * 64, tag * 64)
        c.access = no_walk
        with pytest.raises(AssertionError, match="walked"):
            c.probe_groups([(0, [20, 8, 24, 28], True, [0, 1, 2, 3])])

    def test_resident_head_or_repeats_walk(self):
        c = small_cache(sets=4, ways=2)
        c.access(4 * 64, 4 * 64)
        c.access = no_walk
        for tags, distinct in (([0, 4], True), ([8, 8], False)):
            with pytest.raises(AssertionError, match="walked"):
                c.probe_groups([(0, tags, distinct, [0, 1])])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(WINDOW_SHAPES), st.data())
def test_cascade_shaped_sets_match_sequential_access(shape, data):
    # the prime&probe thrash: a window of about ``ways`` lines per set
    # primes its sets, then foreign fills, re-touches of some window lines
    # and writes reshape them before the next probe, so resident window
    # lines sit at every LRU rank. Latency and state must equal the per-line
    # ``access`` loop, and a set whose lines all miss there must stream,
    # calling ``access`` for none of them.
    sets, ways = shape
    n_ways = data.draw(st.integers(max(1, ways - 1), ways + 1))
    n_sets = data.draw(st.integers(1, sets))
    window = [w * sets + s for w in range(n_ways) for s in range(n_sets)]
    foreign = st.builds(lambda k, s: k * sets + s,
                        st.integers(n_ways, n_ways + 2 * ways), st.integers(0, n_sets - 1))
    ops = data.draw(st.lists(st.one_of(
        st.tuples(st.just("probe"), st.just(0), st.booleans()),
        st.tuples(st.just("fill"), foreign, st.booleans()),
        st.tuples(st.just("retouch"), st.sampled_from(window), st.booleans())),
        min_size=1, max_size=20))
    grouped, sequential = (small_cache(sets, ways) for _ in range(2))
    groups = grouped.group([(line * 64, line * 64) for line in window])
    walked = []
    access = grouped.access

    def tracked(vaddr, paddr, write=False):
        walked.append(grouped.locate(vaddr, paddr)[0])
        return access(vaddr, paddr, write)

    for op, line, write in [("probe", 0, data.draw(st.booleans()))] + ops:
        if op == "probe":
            latencies = [sequential.access(x * 64, x * 64, write) for x in window]
            walked.clear()
            grouped.access = tracked
            assert grouped.probe_groups(groups, write) == sum(latencies)
            del grouped.access
            all_missed = {s for s, _, _, positions in groups
                          if all(latencies[p] != PARAMS.hit_cycles for p in positions)}
            assert all_missed.isdisjoint(walked)
        else:
            assert grouped.access(line * 64, line * 64, write) == \
                sequential.access(line * 64, line * 64, write)
        assert grouped.snapshot() == sequential.snapshot()
        assert grouped._occupied == occupied_sets(grouped) == sequential._occupied


# scaled-down platforms, 64-byte lines and 512-byte pages: (sets, ways,
# indexing, latency) per level, and the observed (partitioned) level. Like
# sabre, the L1 gets twice its ways per set from the kernel buffer; like
# haswell, the buffer fills the L1 exactly and the L2 is observed above an LLC
HIERARCHY_SHAPES = {
    "sabre": ([(8, 2, "virtual", LatencyParams(4, 6, 6, 10)),
               (32, 4, "physical", LatencyParams(8, 12, 8, 20))], 1),
    "haswell": ([(8, 4, "virtual", LatencyParams(4, 6, 6, 10)),
                 (16, 4, "physical", LatencyParams(8, 12, 8, 20)),
                 (64, 8, "physical", LatencyParams(20, 30, 10, 40))], 1),
}
PAGE = 512


def shaped_hierarchy(shape):
    levels, observed = HIERARCHY_SHAPES[shape]
    caches = [CacheState(CacheGeometry(s * w * 64, w, 64, idx), p) for s, w, idx, p in levels]
    return MemoryHierarchy(caches, memory_cycles=100), caches[observed]


def kernel_buffer(observed, colour, first_frame, first_vpage):
    """Like ``alloc_buffer``: ``ways`` frames of one colour of the observed
    cache, mapped at consecutive fresh virtual pages, as (vaddr, paddr) per
    line."""
    colours = colour_count(observed.geometry, PAGE)
    frames = [(first_frame + k) * colours + colour % colours
              for k in range(observed.geometry.ways)]
    return [((first_vpage + i) * PAGE + off, f * PAGE + off)
            for i, f in enumerate(frames) for off in range(0, PAGE, 64)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(HIERARCHY_SHAPES)), st.data())
def test_hierarchy_probe_matches_lookup_then_access(shape, data):
    # the kernel buffer, an L1-fitting window and a window of any lines
    # (repeats allowed, virtual index moved off the physical one), probed
    # between foreign reads and writes and flushes of single levels
    h, observed = shaped_hierarchy(shape)
    ref, ref_observed = shaped_hierarchy(shape)
    l1 = h.levels[0].geometry
    buffer = kernel_buffer(observed, data.draw(st.integers(0, 3)),
                           data.draw(st.integers(0, 3)), data.draw(st.integers(0, 40)))
    fitting = [(pa + 64 * data.draw(st.integers(0, 3)), pa)
               for pa in range(0, data.draw(st.integers(1, l1.lines)) * 64, 64)]
    any_lines = [((v + p) * 64, p * 64) for v, p in data.draw(st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 127)), min_size=1, max_size=40))]
    windows = [buffer, fitting, any_lines]
    grouped = [h.group(w) for w in windows]
    ops = data.draw(st.lists(st.one_of(
        st.tuples(st.just("probe"), st.integers(0, 2)),
        st.tuples(st.just("access"), st.tuples(st.integers(0, 7), st.integers(0, 127),
                                               st.booleans())),
        st.tuples(st.just("flush"), st.integers(0, len(h.levels) - 1))), max_size=12))
    for op, arg in [("probe", 0)] + ops:
        if op == "probe":
            want_latency = want_absent = 0
            for vaddr, paddr in windows[arg]:
                want_absent += not ref_observed.lookup(vaddr, paddr)
                want_latency += ref.access(vaddr, paddr)
            assert h.probe(grouped[arg], observed) == (want_latency, want_absent)
        elif op == "access":
            v, p, write = arg
            assert h.access((v + p) * 64, p * 64, write) == ref.access((v + p) * 64, p * 64, write)
        else:
            assert h.levels[arg].flush() == ref.levels[arg].flush()
        for level, ref_level in zip(h.levels, ref.levels):
            assert level.snapshot() == ref_level.snapshot()
            assert level._occupied == occupied_sets(level) == ref_level._occupied


def test_hierarchy_probe_observes_only_its_levels():
    h, _ = shaped_hierarchy("sabre")
    window = h.group([(0, 0)])
    assert h.probe(window) == (6 + 12 + 100, 0)
    with pytest.raises(ValueError):
        h.probe(window, small_cache())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6),
       st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=60),
       st.lists(st.integers(0, 40), max_size=24), st.data())
def test_btb_window_matches_reference_gshare(history_bits, before, branches, data):
    # a BTB of 8 sets x 2 ways; the window is probed repeatedly between
    # single branches and BTB flushes, so every set case is reached
    btb = CacheState(CacheGeometry(8 * 2 * 4, 2, 4, "virtual"),
                     LatencyParams(1, 10, 0, 16))
    p = PredictorState(btb, history_bits, mispredict_cycles=20)
    touched = PredictorState(CacheState(btb.geometry, btb.params),
                             history_bits, mispredict_cycles=20)
    ref = ReferenceGshare(history_bits, 8, 2, 4, btb_hit=1, btb_miss=10, mispredict=20)
    addrs = [slot * 4 for slot in branches]
    groups = btb.group([(a, a) for a in addrs])
    ops = data.draw(st.lists(st.sampled_from(["window", "flush"]), max_size=6))
    for slot, taken in before:
        p.touch(slot * 4, taken)
        touched.touch(slot * 4, taken)
        ref.touch(slot * 4, taken)
    for op in ops:
        if op == "flush":
            p.btb.flush()
            touched.btb.flush()
            ref.btb = ReferenceLru(8, 2, 4)
            continue
        want = sum(ref.touch(a, True)[0] for a in addrs)
        assert sum(touched.touch(a, True) for a in addrs) == want
        assert p.touch_window(groups, addrs) == want
        assert p.btb.snapshot() == touched.btb.snapshot() == ref.btb.snapshot()
        assert p.history == touched.history == ref.history
        assert list(p.counters) == list(touched.counters) == ref.counter_table()


class TestPredictor:
    def make(self, history_bits=6):
        btb_geo = CacheGeometry(64 * 4, 4, 4, "virtual")
        btb = CacheState(btb_geo, LatencyParams(1, 10, 0, 16))
        return PredictorState(btb, history_bits, mispredict_cycles=20,
                              bhb_flush_base=8)

    def test_saturated_taken_branch_predicts(self):
        p = self.make()
        for _ in range(64):
            p.touch(0x400, taken=True)
        assert p.touch(0x400, taken=True) == 1  # btb hit, no mispredict

    def test_cold_predictor_mispredicts_taken(self):
        p = self.make()
        assert p.touch(0x400, taken=True) == 10 + 20  # btb miss and mispredict

    def test_alternating_history_against_reference(self):
        # train one slot with alternating outcomes; final probe compared with
        # an independent 2-bit counter simulation of the same slot sequence
        p = self.make(history_bits=0)  # single-slot table isolates the counter
        outcomes = [True, False, False, True, False, False]
        for t in outcomes:
            p.touch(0x100, taken=t)
        expect_correct = two_bit_counter_reference(outcomes, probe_taken=True)
        # the trained target is in the BTB, so only the direction can cost
        assert p.touch(0x100, taken=True) == 1 + (0 if expect_correct else 20)

    def test_flush_resets_history_and_counters(self):
        p = self.make()
        for _ in range(30):
            p.touch(0x400, taken=True)
        p.btb.flush()
        assert p.flush_bhb() == 8
        assert p.history == 0 and all(c == 0 for c in p.counters)
        assert p.touch(0x400, taken=True) == 10 + 20  # btb miss and mispredict


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.lists(st.one_of(
    st.tuples(st.integers(0, 40), st.booleans()), st.just("flush")), min_size=1, max_size=200))
def test_predictor_matches_reference_gshare(history_bits, ops):
    # 41 branch slots over a BTB of 8 sets x 2 ways, so targets get evicted;
    # a BHB flush zeroes the whole counter table and the history and leaves
    # the BTB alone, and the reference forgets its outcomes and counters
    btb = CacheState(CacheGeometry(8 * 2 * 4, 2, 4, "virtual"),
                     LatencyParams(1, 10, 0, 16))
    p = PredictorState(btb, history_bits, mispredict_cycles=20,
                       bhb_flush_base=8)
    ref = ReferenceGshare(history_bits, 8, 2, 4, btb_hit=1, btb_miss=10, mispredict=20)
    for op in ops:
        if op == "flush":
            assert p.flush_bhb() == 8
            ref.outcomes, ref.counters = [], {}
            assert len(p.counters) == 1 << history_bits
            assert not any(p.counters)
        else:
            # latencies 1, 10, 21 and 30 each name one (btb hit, direction) pair
            assert p.touch(op[0] * 4, op[1]) == ref.touch(op[0] * 4, op[1])[0]
        assert p.btb.snapshot() == ref.btb.snapshot()
        assert p.history == ref.history
        assert list(p.counters) == ref.counter_table()


class TestHierarchy:
    def make(self):
        l1 = CacheState(CacheGeometry(2 * KIB, 2, 64, "virtual"),
                        LatencyParams(4, 6, 6, 10))
        l2 = CacheState(CacheGeometry(8 * KIB, 4, 64, "physical"),
                        LatencyParams(8, 12, 8, 20))
        return MemoryHierarchy([l1, l2], memory_cycles=100)

    def test_miss_forwards_and_fills_inclusively(self):
        h = self.make()
        cold = h.access(0x40, 0x40)
        assert cold == 6 + 12 + 100
        assert resident_everywhere(h, 0x40, 0x40)
        warm = h.access(0x40, 0x40)
        assert warm == 4

    def test_l2_hit_after_l1_eviction(self):
        h = self.make()
        h.access(0x40, 0x40)
        # evict from the 2-way L1 set without evicting from the larger L2
        span1 = 16 * 64
        h.access(0x40 + span1, 0x40 + span1)
        h.access(0x40 + 2 * span1, 0x40 + 2 * span1)
        assert h.access(0x40, 0x40) == 6 + 8

    def test_levels_must_be_distinct(self):
        # a missed level is filled before the next is asked, so one cache
        # listed twice would hit at its second place
        l1 = self.make().levels[0]
        with pytest.raises(ValueError):
            MemoryHierarchy([l1, l1], memory_cycles=100)


class TestMachine:
    def test_machine_resources_and_flush(self):
        geometries = {
            "l1d": CacheGeometry(2 * KIB, 2, 64, "virtual"),
            "l1i": CacheGeometry(2 * KIB, 2, 64, "virtual"),
            "l2": CacheGeometry(8 * KIB, 4, 64, "physical"),
            "tlb": CacheGeometry(16 * 4096, 2, 4096, "virtual"),
            "btb": CacheGeometry(64 * 4, 4, 4, "virtual"),
        }
        machine = Machine(geometries, LatencyModel(PARAMS), bhb_history_bits=4)
        assert set(machine.resource_ids()) == {"l1d", "l1i", "l2", "tlb", "btb", "bhb"}
        machine.data_path.access(0x40, 0x40, True)
        assert machine.flush("l1d") > PARAMS.flush_base_cycles
        assert machine.flush_worst_case("l1d") == (
            PARAMS.flush_base_cycles
            + 32 * PARAMS.writeback_cycles_per_line)
        assert machine.flush("bhb") == PARAMS.flush_base_cycles
