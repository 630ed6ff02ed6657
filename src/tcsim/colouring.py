"""Page-colouring allocator.

A frame's colour is the equivalence class of cache sets it can occupy in the
designated physically-indexed cache. Giving domains disjoint colour sets
therefore gives them disjoint cache partitions. The partition also keeps a
reserve pool (boot memory and, in unpartitioned scenarios, everything) from
which uncoloured allocations are served.
"""

from __future__ import annotations

from dataclasses import dataclass

from tcsim.microarch import CacheGeometry, colour_count


class OverlappingColours(ValueError):
    """Two domains claimed the same colour."""


class PoolExhausted(RuntimeError):
    """No frame satisfying the request is left in the pool."""


@dataclass(frozen=True)
class Frame:
    """One physical page. The colour is redundant with the address but kept
    explicit so pools can be filtered without re-deriving it."""

    phys_addr: int
    colour: int

    def __post_init__(self):
        if self.phys_addr < 0:
            raise ValueError("phys_addr must be non-negative")


def _colours(geometry: CacheGeometry, page_bytes: int) -> int:
    """Colour count of a cache that colouring can partition."""
    if geometry.indexing != "physical":
        raise ValueError("colouring requires a physically indexed cache")
    return colour_count(geometry, page_bytes)


def colour_of_frame(phys_addr: int, geometry: CacheGeometry, page_bytes: int) -> int:
    """Colour of the page at phys_addr: page number modulo the colour count
    of the partitioned cache. Only defined for physically indexed caches."""
    colours = _colours(geometry, page_bytes)
    if phys_addr % page_bytes != 0:
        raise ValueError("phys_addr must be page-aligned")
    return (phys_addr // page_bytes) % colours


class ColourPartition:
    """Disjoint per-domain frame pools plus an uncoloured reserve.

    Pools are FIFO per colour so allocation order is deterministic. Frames are
    never shared between domains; a frame leaves exactly one pool per
    allocation and ``release`` returns it to its owner's pool.
    """

    def __init__(self, domain_colours: dict[str, set[int]]):
        claimed: set[int] = set()
        for dom, colours in domain_colours.items():
            overlap = claimed & set(colours)
            if overlap:
                raise OverlappingColours(
                    f"domain {dom!r} re-claims colours {sorted(overlap)}")
            claimed |= set(colours)
        self.domain_colours = {d: frozenset(c) for d, c in domain_colours.items()}
        self._colour_owner = {c: d for d, cs in domain_colours.items() for c in cs}
        self.pools: dict[str, dict[int, list[Frame]]] = {
            d: {} for d in domain_colours}
        self.reserve: dict[int, list[Frame]] = {}

    def add_frame(self, frame: Frame):
        owner = self._colour_owner.get(frame.colour)
        pool = self.pools[owner] if owner is not None else self.reserve
        pool.setdefault(frame.colour, []).append(frame)

    def pool_frames(self, domain: str) -> list[Frame]:
        return [f for frames in self.pools[domain].values() for f in frames]

    def reserve_frames(self) -> list[Frame]:
        return [f for frames in self.reserve.values() for f in frames]

    def pool_size(self, domain: str) -> int:
        return sum(len(v) for v in self.pools[domain].values())

    def _take(self, pool: dict[int, list[Frame]], colour: int | None, who: str) -> Frame:
        if colour is not None:
            frames = pool.get(colour)
            if not frames:
                raise PoolExhausted(f"no colour-{colour} frame left for {who}")
            return frames.pop(0)
        for c in sorted(pool):
            if pool[c]:
                return pool[c].pop(0)
        raise PoolExhausted(f"no frame left for {who}")

    def allocate_frame(self, domain: str, colour: int | None = None) -> Frame:
        """Take one frame from the domain's coloured pool. Round-robins over
        the domain's colours unless a specific colour is requested."""
        pool = self.pools[domain]
        if colour is not None:
            if colour not in self.domain_colours[domain]:
                raise PoolExhausted(
                    f"colour {colour} not owned by domain {domain!r}")
            return self._take(pool, colour, domain)
        colours = [c for c in sorted(self.domain_colours[domain]) if pool.get(c)]
        if not colours:
            raise PoolExhausted(f"no frame left for {domain}")
        counts = {c: len(pool[c]) for c in colours}
        best = max(counts.values())
        pick = next(c for c in colours if counts[c] == best)
        return pool[pick].pop(0)

    def allocate_reserve(self, colour: int | None = None) -> Frame:
        """Take one frame from the uncoloured reserve (boot memory, and all
        memory in scenarios without colouring)."""
        return self._take(self.reserve, colour, "reserve")

    def allocate_many(self, domain: str | None, n: int, colour: int | None = None) -> list[Frame]:
        alloc = (lambda c: self.allocate_reserve(c)) if domain is None \
            else (lambda c: self.allocate_frame(domain, c))
        return [alloc(colour) for _ in range(n)]

    def release(self, domain: str | None, frames: list[Frame]):
        """Return frames to the pool they were drawn from."""
        for f in frames:
            pool = self.reserve if domain is None else self.pools[domain]
            pool.setdefault(f.colour, []).append(f)


def partition_pool(frames: list[Frame], assignment: dict[str, set[int]]) -> ColourPartition:
    """Route every frame to the unique domain owning its colour; frames with
    unassigned colours land in the reserve pool."""
    partition = ColourPartition(assignment)
    for f in frames:
        partition.add_frame(f)
    return partition


def build_frames(count: int, geometry: CacheGeometry, page_bytes: int) -> list[Frame]:
    """Physically contiguous frames starting at address 0, coloured against
    the given (partitioned) cache: frame i has the colour ``colour_of_frame``
    gives it, i modulo the colour count."""
    colours = _colours(geometry, page_bytes)
    return [Frame(i * page_bytes, i % colours) for i in range(count)]
