"""Page-colouring allocator.

Physical memory is the page numbers 0..frames-1, and pools hold those page
numbers as plain ints. A page's colour is its page number modulo the colour
count of the designated physically-indexed cache: the equivalence class of
cache sets it can occupy (Kessler & Hill 1992). Giving domains disjoint
colour sets therefore gives them disjoint cache partitions. The partition
also keeps a reserve pool (boot memory and, in unpartitioned scenarios,
everything) from which uncoloured allocations are served.
"""

from __future__ import annotations

from collections import deque


class OverlappingColours(ValueError):
    """Two domains claimed the same colour."""


class PoolExhausted(RuntimeError):
    """No frame satisfying the request is left in the pool."""


class ColourPartition:
    """Disjoint per-domain page pools plus an uncoloured reserve.

    Pools are FIFO per colour so allocation order is deterministic. Pages are
    never shared between domains; a page leaves exactly one pool per
    allocation and ``release`` returns it to its owner's pool. The first
    ``boot`` pages are boot memory: they head the reserve of their colour,
    newest first, whichever domain owns that colour. Every other page joins
    the pool of the domain owning its colour (the reserve when none does) in
    ascending order. A domain of ``None`` names the reserve.
    """

    def __init__(self, frames: int, colours: int, boot: int,
                 domain_colours: dict[str, set[int]]):
        claimed: set[int] = set()
        for dom, cs in domain_colours.items():
            overlap = claimed & set(cs)
            if overlap:
                raise OverlappingColours(
                    f"domain {dom!r} re-claims colours {sorted(overlap)}")
            claimed |= set(cs)
        self.domain_colours = {d: frozenset(c) for d, c in domain_colours.items()}
        self.colours = colours
        boot = min(boot, frames)
        # page numbers >= boot of colour c, ascending
        rest = {c: range(boot + (c - boot) % colours, frames, colours)
                for c in range(colours)}
        self.pools: dict[str, dict[int, deque[int]]] = {
            d: {c: deque(rest[c]) for c in sorted(cs) if c in rest}
            for d, cs in domain_colours.items()}
        self.reserve: dict[int, deque[int]] = {}
        for c in range(colours):
            pages = deque(range(c, boot, colours)[::-1])
            if c not in claimed:
                pages.extend(rest[c])
            self.reserve[c] = pages

    def _pool(self, domain: str | None) -> dict[int, deque[int]]:
        return self.reserve if domain is None else self.pools[domain]

    def pool_size(self, domain: str | None) -> int:
        return sum(len(v) for v in self._pool(domain).values())

    def _take(self, pool: dict[int, deque[int]], colour: int | None, who: str) -> int:
        if colour is not None:
            pages = pool.get(colour)
            if not pages:
                raise PoolExhausted(f"no colour-{colour} frame left for {who}")
            return pages.popleft()
        for c in sorted(pool):
            if pool[c]:
                return pool[c].popleft()
        raise PoolExhausted(f"no frame left for {who}")

    def allocate_frame(self, domain: str, colour: int | None = None) -> int:
        """Take one page from the domain's coloured pool. Round-robins over
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
        best = max(len(pool[c]) for c in colours)
        pick = next(c for c in colours if len(pool[c]) == best)
        return pool[pick].popleft()

    def allocate_reserve(self, colour: int | None = None) -> int:
        """Take one page from the uncoloured reserve (boot memory, and all
        memory in scenarios without colouring)."""
        return self._take(self.reserve, colour, "reserve")

    def allocate_many(self, domain: str | None, n: int, colour: int | None = None) -> list[int]:
        alloc = (lambda c: self.allocate_reserve(c)) if domain is None \
            else (lambda c: self.allocate_frame(domain, c))
        return [alloc(colour) for _ in range(n)]

    def release(self, domain: str | None, pages: list[int]):
        """Return pages to the pool they were drawn from."""
        pool = self._pool(domain)
        for p in pages:
            pool.setdefault(p % self.colours, deque()).append(p)
