"""Models of shared stateful hardware resources with cycle-cost accounting.

Set-associative caches (also used for TLBs and branch target buffers), a
gshare-style direction predictor, and a multi-level inclusive data/instruction
hierarchy. Replacement is exact LRU and caches are write-back: a write marks
the line dirty, and dirty lines are charged one write-back each when evicted
or flushed.

Each cache set is an insertion-ordered dict from tag to dirty bit, LRU first
and MRU last, so a hit, a fill and an eviction are O(1) dict operations and a
flush walks only the occupied sets, costing O(resident lines). Accesses
return a plain int latency; a hit costs exactly ``hit_cycles``, which is
strictly less than any miss.

Everything here is a plain value: identical operation sequences applied to
equal initial states give identical latencies and identical final states.
"""

from __future__ import annotations

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
    level_name: str = "cache"

    def __post_init__(self):
        if self.indexing not in ("physical", "virtual"):
            raise ValueError(f"bad indexing mode {self.indexing!r}")
        for name in ("size_bytes", "ways", "line_bytes"):
            if not _is_pow2(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError("size_bytes not divisible by ways * line_bytes")
        if not _is_pow2(self.sets):
            raise ValueError("set count must be a power of two")

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


class CacheState:
    """One set-associative resource: one insertion-ordered dict per set,
    mapping tag to dirty bit, with the LRU line first and the MRU line last.

    The tag is the global line number (address // line_bytes), so tags are
    unique within a set by construction. A hit re-inserts its tag at the MRU
    end; a fill into a full set evicts the first (LRU) tag. The indices of
    non-empty sets are kept in an occupied-set index, so a flush costs
    O(resident lines) rather than O(sets). ``mod_count`` per set increments
    on every install or flush; read-only probes of resident lines do not bump
    it (recency reordering is not observable through timing). The accessing
    domain is not recorded in the cache state.
    """

    def __init__(self, geometry: CacheGeometry, params: LatencyParams, name: str = ""):
        self.geometry = geometry
        self.params = params
        self.name = name or geometry.level_name
        self.sets: list[dict[int, bool]] = [{} for _ in range(geometry.sets)]
        self.mod_count: list[int] = [0] * geometry.sets
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
        index_addr = vaddr if self._virtual else paddr
        return (paddr >> self._shift) in self.sets[(index_addr >> self._shift) & self._mask]

    def access(self, domain: str, vaddr: int, paddr: int, kind: str = "read") -> int:
        """One load/store/ifetch; returns its latency. A hit costs exactly
        ``hit_cycles`` and refreshes LRU rank; a miss installs the line,
        evicting the LRU way of a full set (dirty eviction charges a
        write-back). A write marks the line dirty."""
        write = kind == "write"
        if self._hit(vaddr, paddr, write):
            return self._hit_cycles
        return self._fill(vaddr, paddr, write)

    def _hit(self, vaddr: int, paddr: int, write: bool) -> bool:
        """The hit half of an access: move a resident line to MRU (dirty on a
        write) and return True, or return False with no state change."""
        index_addr = vaddr if self._virtual else paddr
        ways = self.sets[(index_addr >> self._shift) & self._mask]
        tag = paddr >> self._shift
        dirty = ways.pop(tag, None)
        if dirty is None:
            return False
        ways[tag] = dirty or write
        return True

    def _fill(self, vaddr: int, paddr: int, write: bool) -> int:
        """The miss half of an access: install the line as MRU, evicting the
        LRU line of a full set. Returns the miss latency plus any write-back."""
        index_addr = vaddr if self._virtual else paddr
        set_idx = (index_addr >> self._shift) & self._mask
        ways = self.sets[set_idx]
        latency = self._miss_cycles
        if not ways:
            self._occupied.add(set_idx)
        elif len(ways) >= self._ways and ways.pop(next(iter(ways))):
            latency += self._wb_cycles
        ways[paddr >> self._shift] = write
        self.mod_count[set_idx] += 1
        return latency

    def probe_sets(self, domain: str, lines_by_set: dict) -> dict:
        """Probe whole sets at once: for each set, re-access the given lines
        (index-relevant addresses) in prime order. Equivalent to sequential
        ``access`` calls when the absent lines are the least recent, which
        holds for a prober that owns all resident lines of the set apart from
        younger foreign installs. Returns {set_idx: (latency, misses)} and
        leaves each probed set holding exactly the probed lines."""
        out = {}
        for set_idx, addrs in lines_by_set.items():
            tags = {a >> self._shift for a in addrs}
            if len(addrs) != self._ways or len(tags) != self._ways:
                raise ValueError("probe_sets requires exactly one line per way")
            if any(self.locate(a, a)[0] != set_idx for a in addrs):
                raise ValueError(f"probe_sets line outside set {set_idx}")
            ways = self.sets[set_idx]
            latency = 0
            for tag in [t for t in ways if t not in tags]:  # displaced by the refill
                if ways.pop(tag):
                    latency += self._wb_cycles
            misses = 0
            for a in addrs:
                if self._hit(a, a, False):
                    latency += self._hit_cycles
                else:
                    latency += self._fill(a, a, False)
                    misses += 1
            out[set_idx] = (latency, misses)
        return out

    def dirty_line_count(self) -> int:
        return sum(sum(self.sets[i].values()) for i in self._occupied)

    def resident_line_count(self) -> int:
        return sum(len(self.sets[i]) for i in self._occupied)

    def flush(self) -> int:
        """Invalidate everything. Cost is the base cost plus one write-back
        per dirty line; the post-flush state is canonical regardless of
        history. Only occupied sets are visited."""
        cost = self.params.flush_base_cycles
        for i in self._occupied:
            ways = self.sets[i]
            cost += self._wb_cycles * sum(ways.values())
            ways.clear()
            self.mod_count[i] += 1
        self._occupied.clear()
        return cost

    def snapshot(self) -> list:
        """Per set, (tag, dirty) pairs from LRU to MRU, for state-equality
        assertions."""
        return [list(ways.items()) for ways in self.sets]


class MemoryHierarchy:
    """Ordered cache levels backed by memory; misses forward to the next level.

    Fills install the line at every missed level (inclusive fill); each
    level's dirty evictions charge that level's write-back cost. The total
    latency of an access is the sum of miss costs of the levels that missed
    plus the hit cost of the level that hit (or the memory cost).
    """

    def __init__(self, levels: list[CacheState], memory_cycles: int):
        self.levels = levels
        self.memory_cycles = memory_cycles

    def access(self, domain: str, vaddr: int, paddr: int, kind: str = "read") -> int:
        write = kind == "write"
        latency = self.memory_cycles
        missed = []
        for level in self.levels:
            if level._hit(vaddr, paddr, write):
                latency = level._hit_cycles
                break
            missed.append(level)
        for level in missed:
            latency += level._fill(vaddr, paddr, write)
        return latency

    def resident_everywhere(self, vaddr: int, paddr: int) -> bool:
        return all(lvl.lookup(vaddr, paddr) for lvl in self.levels)


@dataclass
class BhbState:
    """Global-history direction predictor: shift register XOR-indexed into a
    table of 2-bit saturating counters. Counters start at 0 (strongly
    not-taken), so the first branch after a flush mispredicts if taken."""

    history_bits: int
    history: int = 0
    counters: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.counters:
            self.counters = [0] * (1 << self.history_bits)
        if len(self.counters) != (1 << self.history_bits):
            raise ValueError("pattern table size must be 2**history_bits")

    def slot(self, branch_addr: int) -> int:
        return ((branch_addr >> 2) ^ self.history) & ((1 << self.history_bits) - 1)

    def reset(self):
        self.history = 0
        self.counters = [0] * (1 << self.history_bits)


@dataclass(frozen=True)
class PredictResult:
    latency: int
    btb_hit: bool
    direction_correct: bool


class PredictorState:
    """Branch machinery: a tagged target cache (BTB) plus a BhbState."""

    def __init__(self, btb: CacheState, bhb: BhbState, mispredict_cycles: int,
                 bhb_flush_base: int = 0):
        self.btb = btb
        self.bhb = bhb
        self.mispredict_cycles = mispredict_cycles
        self.bhb_flush_base = bhb_flush_base

    def touch(self, domain: str, branch_addr: int, taken: bool) -> PredictResult:
        """Execute one branch: predict direction from the counter table, look
        the target up in the BTB, then train both. Latency is the BTB
        hit/miss cost plus a mispredict penalty when the predicted direction
        disagrees with the outcome."""
        idx = self.bhb.slot(branch_addr)
        predicted_taken = self.bhb.counters[idx] >= 2
        correct = predicted_taken == taken
        btb_latency = self.btb.access(domain, branch_addr, branch_addr, "ifetch")
        latency = btb_latency + (0 if correct else self.mispredict_cycles)
        if taken:
            self.bhb.counters[idx] = min(3, self.bhb.counters[idx] + 1)
        else:
            self.bhb.counters[idx] = max(0, self.bhb.counters[idx] - 1)
        mask = (1 << self.bhb.history_bits) - 1
        self.bhb.history = ((self.bhb.history << 1) | int(taken)) & mask
        return PredictResult(latency, btb_latency == self.btb.params.hit_cycles, correct)

    def flush_btb(self) -> int:
        return self.btb.flush()

    def flush_bhb(self) -> int:
        self.bhb.reset()
        return self.bhb_flush_base


class Machine:
    """All hardware resources of one simulated platform.

    Resources are addressable by short ids: l1d, l1i, l2, llc (when present),
    tlb, btb, bhb. ``data_path``/``ifetch_path`` are the inclusive hierarchies
    used for ordinary loads/stores and instruction fetches.
    """

    def __init__(self, geometries: dict, latency: LatencyModel, bhb_history_bits: int):
        self.latency = latency
        self.caches: dict[str, CacheState] = {}
        for name in ("l1d", "l1i", "l2", "llc", "tlb", "btb"):
            if name in geometries:
                self.caches[name] = CacheState(geometries[name], latency.params(name), name)
        bhb = BhbState(bhb_history_bits)
        self.predictor = PredictorState(
            self.caches["btb"], bhb, latency.mispredict_cycles,
            bhb_flush_base=latency.params("bhb").flush_base_cycles)
        shared_tail = [self.caches[n] for n in ("l2", "llc") if n in self.caches]
        self.data_path = MemoryHierarchy([self.caches["l1d"]] + shared_tail, latency.memory_cycles)
        self.ifetch_path = MemoryHierarchy([self.caches["l1i"]] + shared_tail, latency.memory_cycles)

    def resource_ids(self) -> list[str]:
        ids = [n for n in ("l1d", "l1i", "l2", "llc", "tlb", "btb") if n in self.caches]
        return ids + ["bhb"]

    def cache(self, name: str) -> CacheState:
        return self.caches[name]

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

    def data_access(self, domain: str, vaddr: int, paddr: int, write: bool = False) -> int:
        return self.data_path.access(domain, vaddr, paddr, "write" if write else "read")

    def worst_case_data_access(self) -> int:
        cost = sum(lvl.params.miss_cycles + lvl.params.writeback_cycles_per_line
                   for lvl in self.data_path.levels)
        return cost + self.latency.memory_cycles
