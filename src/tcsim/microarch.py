"""Models of shared stateful hardware resources with cycle-cost accounting.

Set-associative caches (also used for TLBs and branch target buffers), a
gshare-style direction predictor, and a multi-level inclusive data hierarchy.
Replacement is exact LRU and caches are write-back: a write marks the line
dirty, and dirty lines are charged one write-back each when evicted or
flushed.

A cache holds a dict only for each set a fill has touched, from tag to dirty
bit in insertion order, LRU first and MRU last, so a hit, a fill and an
eviction are O(1) dict operations and a flush walks only the occupied sets,
costing O(resident lines). Accesses and branch-predictor touches return a
plain int latency; a hit costs exactly ``hit_cycles``, which is strictly
less than any miss.

A probe window (every line a prime&probe receiver, a switch workload, the
kernel channel's receiver or the cross-core LLC spy touches, in probe order)
is grouped by set once and probed set by set by the exact rules that
``CacheState``'s docstring gives. That is the only set-wise probe: each rule
leaves what exact LRU leaves.

Everything here is a plain value: identical operation sequences applied to
equal initial states give identical latencies and identical final states.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of a set-associative resource.

    ``sets`` is derived: size = sets * ways * line_bytes. For TLBs the "line"
    is one page, for branch target buffers one branch slot.
    """

    size_bytes: int
    ways: int
    line_bytes: int
    indexing: str = "physical"  # "physical" or "virtual"

    def __post_init__(self):
        if self.indexing not in ("physical", "virtual"):
            raise ValueError(f"bad indexing mode {self.indexing!r}")
        for name in ("size_bytes", "ways", "line_bytes"):
            if not _is_pow2(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError("size_bytes not divisible by ways * line_bytes")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def lines(self) -> int:
        return self.sets * self.ways


def colour_count(geometry: CacheGeometry, page_bytes: int) -> int:
    """Number of page colours of a cache: size / (ways * page size), min 1."""
    if not _is_pow2(page_bytes):
        raise ValueError("page_bytes must be a power of two")
    return max(1, geometry.size_bytes // (geometry.ways * page_bytes))


@dataclass(frozen=True)
class LatencyParams:
    """Cycle costs of one resource. miss must cost more than hit."""

    hit_cycles: int
    miss_cycles: int
    writeback_cycles_per_line: int = 0
    flush_base_cycles: int = 0

    def __post_init__(self):
        if min(self.hit_cycles, self.miss_cycles, self.writeback_cycles_per_line,
               self.flush_base_cycles) < 0:
            raise ValueError("latency costs must be non-negative")
        if self.miss_cycles <= self.hit_cycles:
            raise ValueError("miss_cycles must exceed hit_cycles")


@dataclass(frozen=True)
class LatencyModel:
    """Per-resource latency parameters plus global memory and mispredict costs."""

    default: LatencyParams
    overrides: dict = field(default_factory=dict)
    memory_cycles: int = 200
    mispredict_cycles: int = 20

    def params(self, resource: str) -> LatencyParams:
        return self.overrides.get(resource, self.default)


def _cascades(ways: dict[int, bool], head: list[int], nways: int) -> bool:
    """Whether each resident tag ``head[i]`` of a distinct group sits at an
    LRU rank below ``len(ways) - nways + i``, so that the misses before its
    turn evict it: then every line of the group misses."""
    rank = {tag: r for r, tag in enumerate(ways)}
    bar = len(ways) - nways
    for i, tag in enumerate(head):
        r = rank.get(tag)
        if r is not None and r >= bar + i:
            return False
    return True


class CacheState:
    """One set-associative resource: ``sets`` maps the index of each set a
    fill has touched to an insertion-ordered dict from tag to dirty bit, the
    LRU line first and the MRU line last; an absent set is empty, and
    ``lookup`` and ``snapshot`` add none.

    The tag is the global line number (address // line_bytes), so tags are
    unique within a set by construction. A hit re-inserts its tag at the MRU
    end; a fill into a full set evicts the first (LRU) tag. The indices of
    non-empty sets are kept in an occupied-set index, and a flush empties
    those sets in place, so it costs O(resident lines) rather than O(sets).

    ``probe_groups``, the one set-wise probe, accesses a grouped window's
    lines set by set, each set's group of lines in probe order by one of
    three rules, for a single cache and for every level of a hierarchy's
    ``probe``. Untouched: the set holds exactly the group's tags in probe
    order and nothing is written, so every line hits and the set does not
    change. Streaming: the group's tags are distinct and none of its first
    ``ways`` tags is resident, so every line misses (a later tag can only
    have been resident in an entry that ``ways`` earlier misses pushed out).
    In a single cache's window a resident one may cascade out first: each
    miss evicts the LRU entry, so tag ``i`` (from 0) misses if it sits at an
    LRU rank (from 0) below ``len(set) - ways + i``, and when each resident
    one does, the group streams too. The set becomes the last ``ways``
    entries of (old entries, then the group, dirty iff written), a resident
    group tag being among the old entries dropped, and every dirty entry
    dropped costs one write-back. An empty set is the simplest streaming
    case. Walk: anything else goes through ``access`` line by line. At a
    hierarchy level only the lines that missed every level above reach: a
    group that all its lines reach follows the rules, one that some reach
    is walked, accessing those alone, and one that none reach keeps its
    state. At the observed level every line, reaching or not, is looked up
    in its place just before its turn. Levels share no state, sets are
    independent and latencies are ints, so this leaves the latency and the
    state that accessing the lines in probe order leaves.
    """

    def __init__(self, geometry: CacheGeometry, params: LatencyParams, name: str = ""):
        self.geometry = geometry
        self.params = params
        self.name = name
        self.sets: defaultdict[int, dict[int, bool]] = defaultdict(dict)
        self._occupied: set[int] = set()
        self._shift = geometry.line_bytes.bit_length() - 1
        self._mask = geometry.sets - 1
        self._virtual = geometry.indexing == "virtual"
        self._ways = geometry.ways
        self._hit_cycles = params.hit_cycles
        self._miss_cycles = params.miss_cycles
        self._wb_cycles = params.writeback_cycles_per_line

    def locate(self, vaddr: int, paddr: int) -> tuple[int, int]:
        """Set index from the indexing-mode address, tag from the physical
        address (virtually-indexed caches are physically tagged, so distinct
        frames never alias even at equal virtual addresses)."""
        index_addr = vaddr if self._virtual else paddr
        return (index_addr >> self._shift) & self._mask, paddr >> self._shift

    def lookup(self, vaddr: int, paddr: int) -> bool:
        """Presence check with no state change."""
        set_idx = ((vaddr if self._virtual else paddr) >> self._shift) & self._mask
        return (paddr >> self._shift) in self.sets.get(set_idx, ())

    def access(self, vaddr: int, paddr: int, write: bool = False) -> int:
        """One read or write; returns its latency. A hit costs exactly
        ``hit_cycles`` and refreshes LRU rank; a miss installs the line,
        evicting the LRU way of a full set (dirty eviction charges a
        write-back). A write marks the line dirty."""
        shift = self._shift
        set_idx = ((vaddr if self._virtual else paddr) >> shift) & self._mask
        ways = self.sets[set_idx]
        tag = paddr >> shift
        dirty = ways.pop(tag, None)
        if dirty is not None:
            ways[tag] = dirty or write
            return self._hit_cycles
        latency = self._miss_cycles
        if not ways:
            self._occupied.add(set_idx)
        elif len(ways) >= self._ways and ways.pop(next(iter(ways))):
            latency += self._wb_cycles
        ways[tag] = write
        return latency

    def group(self, pairs) -> list[tuple[int, list[int], bool, list[int]]]:
        """Group a window of (vaddr, paddr) lines by set, once, for
        ``probe_groups``. Returns, per set in first-touch order, (set index,
        tags in probe order, whether the tags are distinct, the lines'
        positions in the window)."""
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for pos, (vaddr, paddr) in enumerate(pairs):
            set_idx, tag = self.locate(vaddr, paddr)
            group = groups.get(set_idx)
            if group is None:
                group = groups[set_idx] = ([], [])
            group[0].append(tag)
            group[1].append(pos)
        return [(i, tags, len(set(tags)) == len(tags), positions)
                for i, (tags, positions) in groups.items()]

    def probe_groups(self, groups, write: bool = False, hits: list[int] | None = None,
                     reached: set[int] | None = None, missing: list[int] | None = None) -> int:
        """Access every line of a grouped window (``group``) set by set by
        the rules in the class docstring; returns the total latency and
        leaves the state that ``access`` on each line in probe order leaves.
        A hierarchy level passes ``hits`` to collect the positions of the
        lines that hit, ``reached``, the positions of the lines that reach
        it when some hit above, and at the observed level ``missing`` to
        collect those absent just before their turn."""
        sets = self.sets
        nways, hit, miss, wb = self._ways, self._hit_cycles, self._miss_cycles, self._wb_cycles
        latency = 0
        for set_idx, tags, distinct, positions in groups:
            if reached is not None and not reached.issuperset(positions):
                if not reached.isdisjoint(positions):
                    latency += self._walk(set_idx, tags, positions, write, hits, reached, missing)
                elif missing is not None:
                    ways = sets.get(set_idx, ())
                    missing.extend(p for p, tag in zip(positions, tags) if tag not in ways)
                continue
            ways = sets[set_idx]
            n = len(tags)
            if not ways:
                streaming = distinct
            elif not write and list(ways) == tags:  # untouched
                latency += n * hit
                if hits is not None:
                    hits.extend(positions)
                continue
            else:
                head = tags if n <= nways else tags[:nways]
                streaming = distinct and (ways.keys().isdisjoint(head) or
                                          hits is None and _cascades(ways, head, nways))
            if streaming:
                latency += n * miss
                if not ways:
                    self._occupied.add(set_idx)
                elif n >= nways:  # every old entry is pushed out
                    latency += sum(ways.values()) * wb
                    ways.clear()
                else:  # the LRU entries pushed out, if any
                    while len(ways) > nways - n:
                        if ways.pop(next(iter(ways))):
                            latency += wb
                if n > nways:  # and so are the group's first n - ways lines
                    if write:
                        latency += (n - nways) * wb
                    tags = tags[-nways:]
                for tag in tags:
                    ways[tag] = write
                if missing is not None:
                    missing.extend(positions)
            else:
                latency += self._walk(set_idx, tags, positions, write, hits, reached, missing)
        return latency

    def _walk(self, set_idx: int, tags: list[int], positions: list[int], write: bool,
              hits: list[int] | None, reached: set[int] | None, missing: list[int] | None) -> int:
        """The walk rule on set ``set_idx``: ``access`` in order each line
        that ``reached`` holds (all when None), collecting the hits'
        positions when ``hits`` is given, after a ``lookup`` of every line
        when ``missing`` collects the absent ones. Returns the latency.
        ``vaddr`` gives a virtually indexed cache the set; a physically
        indexed one takes it from the tag."""
        shift = self._shift
        vaddr = set_idx << shift
        hit_cycles = self._hit_cycles
        latency = 0
        for tag, pos in zip(tags, positions):
            paddr = tag << shift
            if missing is not None and not self.lookup(vaddr, paddr):
                missing.append(pos)
            if reached is None or pos in reached:
                cycles = self.access(vaddr, paddr, write)
                latency += cycles
                if hits is not None and cycles == hit_cycles:
                    hits.append(pos)
        return latency

    def flush(self) -> int:
        """Invalidate everything. Cost is the base cost plus one write-back
        per dirty line; the post-flush state is canonical regardless of
        history. Only occupied sets are visited."""
        cost = self.params.flush_base_cycles
        sets, wb = self.sets, self._wb_cycles
        for i in self._occupied:
            ways = sets[i]
            if wb:  # dirty bits cost nothing where write-backs are free
                cost += wb * sum(ways.values())
            ways.clear()
        self._occupied.clear()
        return cost

    def snapshot(self) -> list:
        """Per set of the geometry, (tag, dirty) pairs from LRU to MRU, for
        state-equality assertions."""
        return [list(self.sets.get(i, {}).items()) for i in range(self.geometry.sets)]


class MemoryHierarchy:
    """Ordered cache levels backed by memory; misses forward to the next level.

    Fills install the line at every missed level (inclusive fill); each
    level's dirty evictions charge that level's write-back cost. The total
    latency of an access is the sum of miss costs of the levels that missed
    plus the hit cost of the level that hit (or the memory cost).

    An access walks the levels in order and does at each what
    ``CacheState.access`` does, inline, until one hits, so each missed level
    holds the set it fills: the levels are distinct caches, so installing at
    a missed level before asking the next leaves the same state as filling
    after the walk. A grouped window is read level by level instead
    (``group``, ``probe``), by the rules in ``CacheState``'s docstring.
    """

    def __init__(self, levels: list[CacheState], memory_cycles: int):
        if len({id(lvl) for lvl in levels}) != len(levels):
            raise ValueError("hierarchy levels must be distinct caches")
        self.levels = levels
        self.memory_cycles = memory_cycles
        # what ``access`` reads of every level, gathered once; no level rebinds ``sets``
        self._path = [(lvl.sets, lvl._shift, lvl._mask, lvl._virtual, lvl) for lvl in levels]

    def access(self, vaddr: int, paddr: int, write: bool = False) -> int:
        latency = 0
        for sets, shift, mask, virtual, level in self._path:
            set_idx = ((vaddr if virtual else paddr) >> shift) & mask
            ways = sets[set_idx]
            tag = paddr >> shift
            dirty = ways.pop(tag, None)
            if dirty is not None:
                ways[tag] = dirty or write
                return latency + level._hit_cycles
            latency += level._miss_cycles
            if not ways:
                level._occupied.add(set_idx)
            elif len(ways) >= level._ways and ways.pop(next(iter(ways))):
                latency += level._wb_cycles
            ways[tag] = write
        return latency + self.memory_cycles

    def group(self, pairs) -> tuple[int, list]:
        """Group a window of (vaddr, paddr) lines in probe order, once, for
        ``probe``. Returns the number of lines and, per level, its groups
        (``CacheState.group``) and each position's group."""
        per_level = []
        for level in self.levels:
            groups = level.group(pairs)
            group_of = [0] * len(pairs)
            for g, (_, _, _, positions) in enumerate(groups):
                for pos in positions:
                    group_of[pos] = g
            per_level.append((groups, group_of))
        return len(pairs), per_level

    def probe(self, window, observe: CacheState | None = None) -> tuple[int, int]:
        """Read every line of a grouped window (``group``), as ``access`` on
        each line in probe order would. Returns the total latency and the
        number of lines missing from ``observe``, one of the levels, just
        before their access: what ``observe.lookup`` then ``access``, line by
        line, counts. Each level probes only the sets that the lines missed
        above fall in, except ``observe``, which probes all of them."""
        if observe is not None and observe not in self.levels:
            raise ValueError("the observed cache is not a level of this hierarchy")
        n_lines, per_level = window
        latency = hit_lines = 0
        missing: list[int] = []
        reached = None  # positions of the lines that reach this level; None: all
        last = self.levels[-1]
        for level, (groups, group_of) in zip(self.levels, per_level):
            look = level is observe
            if reached is not None and not look:
                groups = [groups[g] for g in {group_of[p] for p in reached}]
            hits: list[int] = []
            latency += level.probe_groups(groups, False, hits, reached, missing if look else None)
            hit_lines += len(hits)
            if hits and level is not last:
                reached = (set(range(n_lines)) if reached is None else reached).difference(hits)
        return latency + (n_lines - hit_lines) * self.memory_cycles, len(missing)


class PredictorState:
    """Branch machinery: a tagged target cache (BTB) plus a global-history
    direction predictor, a shift register XOR-indexed into a table of 2-bit
    saturating counters, one byte each (values 0-3) in a ``bytearray`` of
    ``1 << history_bits`` entries, so a reset is one zeroed allocation.
    Counters start at 0 (strongly not-taken), so the first branch after a
    flush mispredicts if taken."""

    def __init__(self, btb: CacheState, history_bits: int, mispredict_cycles: int,
                 bhb_flush_base: int = 0):
        self.btb = btb
        self.history_bits = history_bits
        self.history = 0
        self.counters = bytearray(1 << history_bits)
        self.mispredict_cycles = mispredict_cycles
        self.bhb_flush_base = bhb_flush_base
        self._history_mask = (1 << history_bits) - 1

    def touch(self, branch_addr: int, taken: bool) -> int:
        """Execute one branch: look the target up in the BTB and predict the
        direction from the counter table, then train both. Latency is the BTB
        hit/miss cost plus a mispredict penalty when the predicted direction
        disagrees with the outcome."""
        btb_latency = self.btb.access(branch_addr, branch_addr)
        return btb_latency + self._direction((branch_addr,), taken)

    def touch_window(self, groups, branches: list[int]) -> int:
        """Execute taken ``branches`` in order, ``groups`` being the same
        branches grouped by ``btb.group``: the BTB probes them set by set,
        then the direction predictor runs over them in order. The BTB and the
        direction predictor share no state, so this equals ``touch(b, True)``
        for each branch in order."""
        return self.btb.probe_groups(groups) + self._direction(branches, True)

    def _direction(self, branches, taken: bool) -> int:
        """Predict each branch's direction from its 2-bit counter, then
        saturate the counter towards the outcome and shift the outcome into
        the history. Returns the total mispredict penalty."""
        counters = self.counters
        history = self.history
        mask = self._history_mask
        wrong = 0
        for addr in branches:
            idx = ((addr >> 2) ^ history) & mask
            counter = counters[idx]
            wrong += (counter >= 2) != taken
            if taken:
                if counter < 3:
                    counters[idx] = counter + 1
            elif counter > 0:
                counters[idx] = counter - 1
            history = ((history << 1) | taken) & mask
        self.history = history
        return wrong * self.mispredict_cycles

    def flush_bhb(self) -> int:
        self.history = 0
        self.counters = bytearray(1 << self.history_bits)
        return self.bhb_flush_base


# every cache-like resource a machine may have, in resource-id order
CACHE_NAMES = ("l1d", "l1i", "l2", "llc", "tlb", "btb")


class Machine:
    """All hardware resources of one simulated platform.

    Resources are addressable by short ids: l1d, l1i, l2, llc (when present),
    tlb, btb, bhb. ``data_path`` is the inclusive hierarchy that kernel
    memory traffic and streamed workloads walk.
    """

    def __init__(self, geometries: dict, latency: LatencyModel, bhb_history_bits: int):
        self.latency = latency
        self.caches: dict[str, CacheState] = {}
        for name in CACHE_NAMES:
            if name in geometries:
                self.caches[name] = CacheState(geometries[name], latency.params(name), name)
        self.predictor = PredictorState(
            self.caches["btb"], bhb_history_bits, latency.mispredict_cycles,
            bhb_flush_base=latency.params("bhb").flush_base_cycles)
        shared_tail = [self.caches[n] for n in ("l2", "llc") if n in self.caches]
        self.data_path = MemoryHierarchy([self.caches["l1d"]] + shared_tail, latency.memory_cycles)

    def resource_ids(self) -> list[str]:
        return [*self.caches, "bhb"]

    def flush(self, name: str) -> int:
        if name == "bhb":
            return self.predictor.flush_bhb()
        return self.caches[name].flush()

    def flush_worst_case(self, name: str) -> int:
        """Upper bound on one flush: base cost plus every line dirty."""
        if name == "bhb":
            return self.predictor.bhb_flush_base
        cache = self.caches[name]
        return (cache.params.flush_base_cycles
                + cache.geometry.lines * cache.params.writeback_cycles_per_line)

    def worst_case_data_access(self) -> int:
        cost = sum(lvl.params.miss_cycles + lvl.params.writeback_cycles_per_line
                   for lvl in self.data_path.levels)
        return cost + self.latency.memory_cycles
