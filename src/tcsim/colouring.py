"""Page-colouring allocator.

Physical memory is the page numbers 0..frames-1, and pools hold those page
numbers as plain ints. A page's colour is its page number modulo the colour
count of the designated physically-indexed cache: the equivalence class of
cache sets it can occupy (Kessler & Hill 1992). Giving domains disjoint
colour sets therefore gives them disjoint cache partitions. The partition
also keeps a reserve pool (boot memory and, in unpartitioned scenarios,
everything).

``ColourPartition.allocate`` is the only place that decides where a domain's
pages come from: a domain that owns colours draws from its own pool, taking
each page from the colour with the most pages left (lowest colour first);
``None``, or a domain that owns no colours, draws from the reserve, which
drains its lowest non-empty colour first.
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
    ascending order. ``allocate`` is the only way pages leave: a coloured
    pool gives from the colour with the most pages left (lowest colour
    first), the reserve from its lowest non-empty colour. Wherever a domain
    is named, ``None`` and a domain that owns no colours both name the
    reserve. Each domain's colours are kept here only, in
    ``domain_colours``.
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
        """The domain's coloured pool; the reserve for ``None`` and for a
        domain that owns no colours."""
        return self.pools[domain] if self.domain_colours.get(domain) else self.reserve

    def pool_size(self, domain: str | None) -> int:
        return sum(len(v) for v in self._pool(domain).values())

    def allocate(self, domain: str | None, n: int = 1,
                 colour: int | None = None) -> list[int]:
        """Take ``n`` pages from the domain's pool, all of ``colour`` when
        one is given, else by the pool's picking rule (see the class). All
        or nothing: when the pool cannot give ``n`` pages, raise
        ``PoolExhausted`` and take none."""
        pool = self._pool(domain)
        owned = self.domain_colours.get(domain)
        if n > 0 and colour is not None and owned and colour not in owned:
            raise PoolExhausted(f"colour {colour} not owned by domain {domain!r}")
        left = len(pool.get(colour, ())) if colour is not None else self.pool_size(domain)
        if left < n:
            wanted = "" if colour is None else f"colour-{colour} "
            raise PoolExhausted(f"no {wanted}frame left for {domain if owned else 'reserve'}")
        order = sorted(pool)
        pages = []
        for _ in range(n):
            if colour is not None:
                pick = colour
            elif owned:
                pick = max(order, key=lambda c: len(pool[c]))
            else:
                pick = next(c for c in order if pool[c])
            pages.append(pool[pick].popleft())
        return pages

    def release(self, domain: str | None, pages: list[int]):
        """Return pages to the pool they were drawn from."""
        pool = self._pool(domain)
        for p in pages:
            pool.setdefault(p % self.colours, deque()).append(p)
