"""Cache, predictor and hierarchy model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceLru, two_bit_counter_reference
from tcsim.microarch import (BhbState, CacheGeometry, CacheState, LatencyModel,
                             LatencyParams, Machine, MemoryHierarchy,
                             PredictorState, colour_count)

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
        first = c.access("a", 0x1000, 0x1000)
        again = c.access("a", 0x1000, 0x1000)
        assert first == PARAMS.miss_cycles
        assert again == PARAMS.hit_cycles

    def test_lru_thrash(self):
        # ways+1 conflicting lines accessed round-robin miss every time
        c = small_cache(sets=4, ways=2)
        stride = 4 * 64  # one way
        addrs = [0x0, stride, 2 * stride]
        for _ in range(5):
            for a in addrs:
                assert c.access("a", a, a) == PARAMS.miss_cycles

    def test_dirty_eviction_charges_writeback(self):
        c = small_cache(sets=1, ways=2)
        c.access("a", 0 * 64, 0 * 64, "write")
        c.access("a", 1 * 64, 1 * 64, "write")
        latency = c.access("a", 2 * 64, 2 * 64)
        assert latency == PARAMS.miss_cycles + PARAMS.writeback_cycles_per_line
        # the dirty LRU line 0 was evicted; line 2 is installed clean as MRU
        assert c.snapshot() == [[(1, True), (2, False)]]

    def test_write_marks_dirty_and_dirty_implies_valid(self):
        c = small_cache()
        c.access("a", 0x40, 0x40, "write")
        assert c.dirty_line_count() == 1
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
        c.access("a", 0x1000, 0x8000)
        # same virtual address, different frame: same set, different tag
        assert c.access("b", 0x1000, 0x9000) == PARAMS.miss_cycles
        sa, ta = c.locate(0x1000, 0x8000)
        sb, tb = c.locate(0x1000, 0x9000)
        assert sa == sb and ta != tb


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), min_size=1, max_size=200),
       st.sampled_from([(4, 2), (8, 4), (2, 8)]))
def test_access_matches_reference_lru(ops, shape):
    sets, ways = shape
    c = small_cache(sets=sets, ways=ways)
    ref = ReferenceLru(sets, ways, 64)
    for line_no, write in ops:
        addr = line_no * 64
        latency = c.access("a", addr, addr, "write" if write else "read")
        ref_hit, ref_evicted = ref.access(addr, addr, write)
        assert (latency == PARAMS.hit_cycles) == ref_hit
        assert latency == ref_latency(PARAMS, ref_hit, ref_evicted)
        # resident tags, dirty bits and recency order; this pins the evicted
        # line as the one the reference evicted
        assert c.snapshot() == ref.snapshot()
    assert c.dirty_line_count() == ref.dirty_count()
    assert c.resident_line_count() <= sets * ways


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.booleans()), max_size=150))
def test_determinism_and_residency_bound(ops):
    c1 = small_cache(sets=8, ways=2)
    c2 = small_cache(sets=8, ways=2)
    lat1 = [c1.access("a", ln * 64, ln * 64, "write" if w else "read") for ln, w in ops]
    lat2 = [c2.access("a", ln * 64, ln * 64, "write" if w else "read") for ln, w in ops]
    assert lat1 == lat2
    assert c1.snapshot() == c2.snapshot()
    assert c1.resident_line_count() <= 16
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
        for (_, _, idx, params), ref in zip(shapes, refs):
            hit, evicted = ref.access(vaddr if idx == "virtual" else paddr, paddr, write)
            expected += ref_latency(params, hit, evicted)  # includes write-backs
            if hit:
                break
        else:
            expected += 100  # every level missed: memory
        assert h.access("a", vaddr, paddr, "write" if write else "read") == expected
    for level, ref in zip(levels, refs):
        assert level.snapshot() == ref.snapshot()


class TestFlush:
    def test_empty_flush_costs_base(self):
        c = small_cache()
        assert c.flush() == PARAMS.flush_base_cycles

    def test_flush_cost_counts_dirty_lines(self):
        c = small_cache(sets=8, ways=2)
        for i in range(5):
            c.access("a", i * 64, i * 64, "write")  # five distinct sets
        cost = c.flush()
        assert cost == PARAMS.flush_base_cycles + 5 * PARAMS.writeback_cycles_per_line

    def test_double_flush_idempotent(self):
        c = small_cache()
        for i in range(7):
            c.access("a", i * 64, i * 64, "write")
        c.flush()
        snap = c.snapshot()
        assert c.flush() == PARAMS.flush_base_cycles
        assert c.snapshot() == snap

    def test_flush_erases_history(self):
        c1, c2 = small_cache(), small_cache()
        for i in range(20):
            c1.access("a", i * 64, i * 64, "write")
        c2.access("b", 123 * 64, 123 * 64)
        c1.flush()
        c2.flush()
        assert c1.snapshot() == c2.snapshot()

    @given(st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_flush_cost_monotone_in_dirty_lines(self, k):
        big = small_cache(sets=64, ways=8)
        for i in range(k):
            big.access("a", i * 64, i * 64, "write")
        more = small_cache(sets=64, ways=8)
        for i in range(k + 1):
            more.access("a", i * 64, i * 64, "write")
        assert more.flush() >= big.flush()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("access"), st.integers(0, 255), st.booleans()),
    st.tuples(st.just("probe"), st.integers(0, 7), st.integers(0, 30))), max_size=120))
def test_flush_costs_dirty_lines_and_empties_every_set(ops):
    sets, ways = 8, 4
    c = small_cache(sets=sets, ways=ways)
    for op, a, b in ops:
        if op == "access":
            c.access("a", a * 64, a * 64, "write" if b else "read")
        else:
            c.probe_sets("spy", {a: [((b + j) * sets + a) * 64 for j in range(ways)]})
    before = c.snapshot()
    dirty = sum(d for lines in before for _, d in lines)
    mods = list(c.mod_count)
    assert c.flush() == PARAMS.flush_base_cycles + PARAMS.writeback_cycles_per_line * dirty
    assert all(not lines for lines in c.snapshot())
    assert c.resident_line_count() == 0 and c.dirty_line_count() == 0
    # exactly the sets that held lines count a modification
    assert c.mod_count == [m + bool(lines) for m, lines in zip(mods, before)]


class TestProbeSets:
    def test_probe_equivalent_to_sequential_access(self):
        # foreign lines installed after the prime are younger than every
        # resident probe line, the regime probe_sets is specified for
        ways, sets, line = 4, 8, 64
        for foreign in (0, 1, 2, 3):
            a = small_cache(sets=sets, ways=ways)
            b = small_cache(sets=sets, ways=ways)
            lines = [(w * sets + 2) * line for w in range(ways)]
            for c in (a, b):
                for addr in lines:
                    c.access("spy", addr, addr)
                for i in range(foreign):
                    v = (100 + i) * sets * line + 2 * line
                    c.access("victim", v, v)
            seq_lat = sum(a.access("spy", x, x) for x in reversed(lines))
            got = b.probe_sets("spy", {2: list(reversed(lines))})
            assert got[2][0] == seq_lat
            assert got[2][1] == foreign
            assert a.snapshot() == b.snapshot()

    def test_probe_requires_full_way_cover(self):
        c = small_cache(sets=4, ways=4)
        with pytest.raises(ValueError):
            c.probe_sets("spy", {0: [0, 64]})
        with pytest.raises(ValueError):  # a repeated line is not a way
            c.probe_sets("spy", {0: [0, 256, 512, 768, 768]})

    def test_probe_rejects_lines_of_another_set(self):
        c = small_cache(sets=4, ways=4)
        with pytest.raises(ValueError):
            c.probe_sets("spy", {1: [w * 4 * 64 for w in range(4)]})


class TestPredictor:
    def make(self, history_bits=6):
        btb_geo = CacheGeometry(64 * 4, 4, 4, "virtual", "btb")
        btb = CacheState(btb_geo, LatencyParams(1, 10, 0, 16))
        return PredictorState(btb, BhbState(history_bits), mispredict_cycles=20,
                              bhb_flush_base=8)

    def test_saturated_taken_branch_predicts(self):
        p = self.make()
        for _ in range(64):
            p.touch("a", 0x400, taken=True)
        res = p.touch("a", 0x400, taken=True)
        assert res.direction_correct and res.btb_hit
        assert res.latency == 1  # btb hit, no mispredict

    def test_cold_predictor_mispredicts_taken(self):
        p = self.make()
        res = p.touch("a", 0x400, taken=True)
        assert not res.btb_hit and not res.direction_correct
        assert res.latency == 10 + 20

    def test_alternating_history_against_reference(self):
        # train one slot with alternating outcomes; final probe compared with
        # an independent 2-bit counter simulation of the same slot sequence
        p = self.make(history_bits=0)  # single-slot table isolates the counter
        outcomes = [True, False, False, True, False, False]
        for t in outcomes:
            p.touch("a", 0x100, taken=t)
        expect_correct = two_bit_counter_reference(outcomes, probe_taken=True)
        res = p.touch("a", 0x100, taken=True)
        assert res.direction_correct == expect_correct
        assert res.latency >= 20 if not expect_correct else res.latency < 20

    def test_flush_resets_history_and_counters(self):
        p = self.make()
        for _ in range(30):
            p.touch("a", 0x400, taken=True)
        p.flush_btb()
        assert p.flush_bhb() == 8
        assert p.bhb.history == 0 and all(c == 0 for c in p.bhb.counters)
        res = p.touch("a", 0x400, taken=True)
        assert not res.btb_hit and not res.direction_correct


class TestHierarchy:
    def make(self):
        l1 = CacheState(CacheGeometry(2 * KIB, 2, 64, "virtual", "l1"),
                        LatencyParams(4, 6, 6, 10))
        l2 = CacheState(CacheGeometry(8 * KIB, 4, 64, "physical", "l2"),
                        LatencyParams(8, 12, 8, 20))
        return MemoryHierarchy([l1, l2], memory_cycles=100)

    def test_miss_forwards_and_fills_inclusively(self):
        h = self.make()
        cold = h.access("a", 0x40, 0x40)
        assert cold == 6 + 12 + 100
        assert h.resident_everywhere(0x40, 0x40)
        warm = h.access("a", 0x40, 0x40)
        assert warm == 4

    def test_l2_hit_after_l1_eviction(self):
        h = self.make()
        h.access("a", 0x40, 0x40)
        # evict from the 2-way L1 set without evicting from the larger L2
        span1 = 16 * 64
        h.access("a", 0x40 + span1, 0x40 + span1)
        h.access("a", 0x40 + 2 * span1, 0x40 + 2 * span1)
        assert h.access("a", 0x40, 0x40) == 6 + 8


class TestMachine:
    def test_machine_resources_and_flush(self):
        geometries = {
            "l1d": CacheGeometry(2 * KIB, 2, 64, "virtual", "l1d"),
            "l1i": CacheGeometry(2 * KIB, 2, 64, "virtual", "l1i"),
            "l2": CacheGeometry(8 * KIB, 4, 64, "physical", "l2"),
            "tlb": CacheGeometry(16 * 4096, 2, 4096, "virtual", "tlb"),
            "btb": CacheGeometry(64 * 4, 4, 4, "virtual", "btb"),
        }
        machine = Machine(geometries, LatencyModel(PARAMS), bhb_history_bits=4)
        assert set(machine.resource_ids()) == {"l1d", "l1i", "l2", "tlb", "btb", "bhb"}
        machine.data_access("a", 0x40, 0x40, write=True)
        assert machine.flush("l1d") > PARAMS.flush_base_cycles
        assert machine.flush_worst_case("l1d") == (
            PARAMS.flush_base_cycles
            + 32 * PARAMS.writeback_cycles_per_line)
        assert machine.flush("bhb") == PARAMS.flush_base_cycles
