"""Independent reference computations used to pin expected test values.

These deliberately avoid the code paths they check: the MI oracles integrate
with dense Simpson/trapezoid quadrature over directly-evaluated densities
(the library bins samples onto a grid and convolves), the point density is a
direct Gaussian sum, the LRU reference is a dict-based re-implementation,
the gshare reference keeps its history as a list of outcomes, the colour
checks are brute force, and the reference partition is the
one-Frame-per-page allocator that the page-number pools replaced. The
shuffle-bound reference and the domain-switch reference are the exceptions:
each is the plain form of the library's computation (regroup and fully
re-estimate every shuffle, quartiles from ``np.percentile``; check the IRQ
invariant after every switch step), so that the library's shortcut can be
held to the same bits and counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from tcsim.colouring import OverlappingColours, PoolExhausted
from tcsim.kernel import SHARED_REGION_NAMES, PadOverrun, StepCost, SwitchTrace
from tcsim.stats import (Z_95, DegenerateAlphabet, TooFewSamples,
                         silverman_bandwidth)


@dataclass
class DensityEntry:
    """Gaussian KDE for one input symbol's outputs, evaluated directly."""

    samples: np.ndarray
    bandwidth: float
    n: int

    def pdf(self, points) -> np.ndarray:
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        z = (pts[:, None] - self.samples[None, :]) / self.bandwidth
        dens = np.exp(-0.5 * z * z).sum(axis=1)
        return dens / (self.n * self.bandwidth * math.sqrt(2 * math.pi))


def estimate_density(samples, eps: float = 1e-6) -> DensityEntry:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    if len(arr) < 2:
        raise TooFewSamples(f"need at least 2 samples, got {len(arr)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return DensityEntry(arr, silverman_bandwidth(arr, eps), len(arr))


def percentile_bandwidth(samples: np.ndarray, eps: float = 1e-6) -> float:
    """Silverman's rule with the quartiles from ``np.percentile``."""
    n = len(samples)
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    sd = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75, 25])
    spread = min(sd, float(q75 - q25) / 1.34)
    if spread <= 0:
        return eps
    return float(1.06 * spread * n ** (-1 / 5))


def reference_binned_density(samples: np.ndarray, h: float, lo: float,
                             step: float, points: int) -> np.ndarray:
    """KDE on a uniform grid via linear binning + discrete-kernel convolution."""
    pos = (samples - lo) / step
    left = np.clip(np.floor(pos).astype(int), 0, points - 1)
    right = np.clip(left + 1, 0, points - 1)
    frac = pos - np.floor(pos)
    hist = np.bincount(left, weights=1.0 - frac, minlength=points)
    hist += np.bincount(right, weights=frac, minlength=points)
    radius = min((points - 1) // 2, max(1, int(math.ceil(4 * h / step))))
    t = np.arange(-radius, radius + 1) * step
    kernel = np.exp(-0.5 * (t / h) ** 2)
    kernel /= kernel.sum()
    dens = np.convolve(hist, kernel, mode="same")
    return dens / (len(samples) * step)


def reference_mi(inputs, outputs, grid_points: int = 4096, eps: float = 1e-6):
    """One full MI estimate: group, bandwidths, grid, densities, integral.
    Returns (clamped mi, bandwidths by str(symbol), grid lo, grid hi)."""
    inputs = np.asarray(inputs)
    outputs = np.asarray(outputs, dtype=float)
    symbols = sorted(set(inputs.tolist()), key=str)
    if len(symbols) < 2:
        raise DegenerateAlphabet(f"need >= 2 input symbols, got {len(symbols)}")
    groups = [outputs[inputs == s] for s in symbols]
    for s, g in zip(symbols, groups):
        if len(g) < 2:
            raise TooFewSamples(f"symbol {s!r} has {len(g)} samples")
    bands = {s: percentile_bandwidth(g, eps) for s, g in zip(symbols, groups)}
    h_max = max(bands.values())
    out_all = np.concatenate(groups)
    lo = float(out_all.min()) - 3 * h_max
    hi = float(out_all.max()) + 3 * h_max
    step = (hi - lo) / (grid_points - 1)
    prior = 1.0 / len(symbols)
    dens = [reference_binned_density(g, bands[s], lo, step, grid_points)
            for s, g in zip(symbols, groups)]
    mixture = prior * np.sum(dens, axis=0)
    mi = 0.0
    for f_i in dens:
        mask = f_i > 1e-300
        ratio = f_i[mask] / mixture[mask]
        mi += prior * float(np.sum(f_i[mask] * np.log2(ratio))) * step
    return max(mi, 0.0), {str(s): bands[s] for s in symbols}, lo, hi


def reference_bound(inputs, outputs, shuffles: int = 100, seed: int = 0,
                    grid_points: int = 4096, eps: float = 1e-6):
    """Shuffle bound by one full re-estimate per permuted output column.
    Returns (shuffle MIs, bound)."""
    outputs = np.asarray(outputs, dtype=float)
    rng = np.random.default_rng(seed)
    mis = []
    for _ in range(shuffles):
        perm = rng.permutation(len(outputs))
        mis.append(reference_mi(inputs, outputs[perm], grid_points, eps)[0])
    mean = float(np.mean(mis))
    sd = float(np.std(mis, ddof=1))
    return tuple(mis), mean + Z_95 * sd


def analytic_mixture_mi(means, sigma=1.0, points=2**19, pad=14.0) -> float:
    """True MI of a uniform mixture of unit-variance Gaussians, by dense
    trapezoid quadrature of the defining integral."""
    means = np.asarray(means, dtype=float)
    x = np.linspace(means.min() - pad, means.max() + pad, points)
    p = 1.0 / len(means)
    dens = [np.exp(-0.5 * ((x - m) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
            for m in means]
    mix = p * np.sum(dens, axis=0)
    mi = 0.0
    for f in dens:
        mask = f > 1e-300
        mi += p * np.trapezoid(f[mask] * np.log2(f[mask] / mix[mask]), x[mask])
    return float(mi)


def quadrature_kde_mi(inputs, outputs, nodes=8193, eps=1e-6) -> float:
    """Brute-force MI of the fitted KDE model: per-symbol Gaussian-sum
    densities evaluated directly on a dense grid, Simpson integration."""
    inputs = np.asarray(inputs)
    outputs = np.asarray(outputs, dtype=float)
    symbols = sorted(set(inputs.tolist()), key=str)
    groups = [outputs[inputs == s] for s in symbols]
    bands = [silverman_bandwidth(g, eps) for g in groups]
    hmax = max(bands)
    x = np.linspace(outputs.min() - 8 * hmax, outputs.max() + 8 * hmax, nodes)
    dens = []
    for g, h in zip(groups, bands):
        d = np.zeros_like(x)
        for i in range(0, len(g), 2048):
            chunk = g[i:i + 2048]
            d += np.exp(-0.5 * ((x[:, None] - chunk[None, :]) / h) ** 2).sum(axis=1)
        dens.append(d / (len(g) * h * np.sqrt(2 * np.pi)))
    p = 1.0 / len(symbols)
    mix = p * np.sum(dens, axis=0)
    mi = 0.0
    for f in dens:
        integrand = np.where(
            f > 1e-300,
            f * np.log2(np.maximum(f, 1e-300) / np.maximum(mix, 1e-300)), 0.0)
        mi += p * simpson(integrand, x=x)
    return float(mi)


def gaussian_mixture_dataset(k: int, d: float, n: int, seed: int):
    """Samples from k unit-variance Gaussians at means 0, d, 2d, ..."""
    rng = np.random.default_rng(seed)
    inputs = rng.integers(0, k, size=n)
    outputs = inputs * d + rng.standard_normal(n)
    return inputs, outputs


class ReferenceLru:
    """Dict-based LRU set-associative model: returns hit/miss and the evicted
    (tag, dirty), tracking recency with an access clock rather than with
    insertion order as the real cache does."""

    def __init__(self, sets: int, ways: int, line_bytes: int):
        self.sets, self.ways, self.line = sets, ways, line_bytes
        self.state = [dict() for _ in range(sets)]  # tag -> [last_use, dirty]
        self.clock = 0

    def access(self, index_addr: int, tag_addr: int, write: bool = False):
        self.clock += 1
        set_idx = (index_addr // self.line) % self.sets
        tag = tag_addr // self.line
        entries = self.state[set_idx]
        if tag in entries:
            entries[tag][0] = self.clock
            if write:
                entries[tag][1] = True
            return True, None
        evicted = None
        if len(entries) >= self.ways:
            victim = min(entries, key=lambda t: entries[t][0])
            evicted = (victim, entries[victim][1])
            del entries[victim]
        entries[tag] = [self.clock, write]
        return False, evicted

    def dirty_count(self) -> int:
        return sum(1 for e in self.state for _, d in e.values() if d)

    def snapshot(self) -> list:
        """Per set, (tag, dirty) pairs from least to most recently used."""
        return [[(tag, e[tag][1]) for tag in sorted(e, key=lambda t: e[t][0])]
                for e in self.state]


class ReferenceGshare:
    """Branch predictor reference: a ReferenceLru target buffer, a list of
    past outcomes (newest last) as the global history, and a dict of 2-bit
    counters keyed by pattern-table slot, absent meaning 0."""

    def __init__(self, history_bits: int, btb_sets: int, btb_ways: int,
                 btb_line: int, btb_hit: int, btb_miss: int, mispredict: int):
        self.bits = history_bits
        self.outcomes: list[bool] = []
        self.counters: dict[int, int] = {}
        self.btb = ReferenceLru(btb_sets, btb_ways, btb_line)
        self.btb_hit, self.btb_miss, self.mispredict = btb_hit, btb_miss, mispredict

    @property
    def history(self) -> int:
        recent = self.outcomes[max(0, len(self.outcomes) - self.bits):]
        return sum(1 << age for age, taken in enumerate(reversed(recent)) if taken)

    def touch(self, branch_addr: int, taken: bool):
        """(latency, btb_hit, direction_correct) of one executed branch."""
        slot = ((branch_addr // 4) ^ self.history) % (1 << self.bits)
        counter = self.counters.get(slot, 0)
        correct = (counter >= 2) == taken
        hit, _ = self.btb.access(branch_addr, branch_addr)
        latency = (self.btb_hit if hit else self.btb_miss) + (0 if correct else self.mispredict)
        self.counters[slot] = min(3, counter + 1) if taken else max(0, counter - 1)
        self.outcomes.append(taken)
        return latency, hit, correct

    def counter_table(self) -> list[int]:
        return [self.counters.get(i, 0) for i in range(1 << self.bits)]


def two_bit_counter_reference(outcomes, probe_taken=True, init=0):
    """Direction prediction of one pattern-table slot fed a branch outcome
    sequence; returns whether a final probe of ``probe_taken`` is predicted."""
    counter = init
    for taken in outcomes:
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
    return (counter >= 2) == probe_taken


def frame_sets(phys_addr: int, geometry, page_bytes: int) -> set:
    """All cache sets of ``geometry`` the page at phys_addr can occupy."""
    line = geometry.line_bytes
    return {((phys_addr + off) // line) % geometry.sets
            for off in range(0, page_bytes, line)}


def pools_cache_disjoint(pages_a, pages_b, geometry, page_bytes: int) -> bool:
    """Brute-force pairwise check that no cache set is reachable from page
    numbers of both pools."""
    sets_a = set()
    for p in pages_a:
        sets_a |= frame_sets(p * page_bytes, geometry, page_bytes)
    for p in pages_b:
        if sets_a & frame_sets(p * page_bytes, geometry, page_bytes):
            return False
    return True


def colour_of_frame(phys_addr: int, geometry, page_bytes: int) -> int:
    """Colour of the page at phys_addr from its address and the partitioned
    cache's shape: page number modulo size / (ways * page size). Only defined
    for physically indexed caches and page-aligned addresses."""
    if geometry.indexing != "physical":
        raise ValueError("colouring requires a physically indexed cache")
    if phys_addr % page_bytes != 0:
        raise ValueError("phys_addr must be page-aligned")
    colours = max(1, geometry.size_bytes // (geometry.ways * page_bytes))
    return (phys_addr // page_bytes) % colours


def pool_pages(partition, domain) -> list[int]:
    """Every page number left in a domain's pool (the reserve for None)."""
    pool = partition.reserve if domain is None else partition.pools[domain]
    return [p for pages in pool.values() for p in pages]


def dirty_line_count(cache) -> int:
    return sum(dirty for ways in cache.snapshot() for _, dirty in ways)


def resident_line_count(cache) -> int:
    return sum(len(ways) for ways in cache.snapshot())


def resident_everywhere(hierarchy, vaddr: int, paddr: int) -> bool:
    return all(level.lookup(vaddr, paddr) for level in hierarchy.levels)


def reference_code_lines(image, profile, kparams) -> list[int]:
    """Every code line of a kernel image: the physical address of each line
    of its first ``kparams.code_frames`` frames, frame by frame. A system
    call of footprint n touches the first n of them, in this order."""
    page, line = profile.page_bytes, profile.line_bytes
    return [f * page + i for f in image.frames[:kparams.code_frames]
            for i in range(0, page, line)]


def step_numbers(trace) -> list[int]:
    return [s.number for s in trace.steps]


def reference_domain_switch(sim, next_domain: str) -> SwitchTrace:
    """``Simulator.domain_switch`` as the step sequence defines it: each
    region looked up by name in ``sim.shared_regions`` and accessed through
    the data path, step costs and totals summed from the steps, and the IRQ
    invariant evaluated after every step."""
    kp = sim.kparams

    def region(name, write=False):
        addr = sim.shared_regions[name]
        return sim.machine.data_path.access(addr, addr, write)

    prev_image = sim.current_image()
    next_image = sim.images[sim.domains[next_domain].kernel_image]
    kernel_switch = prev_image.id != next_image.id
    steps = []

    def step(number, name, cycles):
        steps.append(StepCost(number, name, cycles))
        if sim.cfg.partition_irqs:
            sim.irq_checks += 1
            sim.irq_violations += not sim.check_irq_invariant()

    step(1, "lock", kp.lock_cycles + region("lock_word", write=True))
    step(2, "tick", kp.tick_cycles
         + region("sched_queues")
         + region("sched_bitmap")
         + region("current_decision", write=True))
    if kernel_switch:
        cost = kp.mask_cycles + region("irq_state_table", write=True) \
            + region("current_irq")
        for irq in prev_image.owned_irqs:
            sim.irq_masked[irq] = True
        step(3, "mask_prev_irqs", cost)
        step(4, "stack_switch", kp.stack_switch_cycles)
    cost = kp.thread_switch_cycles \
        + region("current_thread", write=True) \
        + region("current_kernel", write=True) \
        + region("asid_table") \
        + region("idle_thread") \
        + region("fpu_owner")
    sim.current_domain = next_domain
    step(5, "thread_switch", cost)
    step(6, "unlock", kp.unlock_cycles + region("lock_word", write=True))
    if kernel_switch:
        for irq in next_image.owned_irqs:
            sim.irq_masked[irq] = False
        step(7, "unmask_next_irqs",
             kp.unmask_cycles + region("irq_state_table", write=True))
        step(8, "flush", sum(sim.machine.flush(r) for r in sim.cfg.flush_targets))
        if sim.cfg.prefetch_shared:
            step(9, "prefetch_shared",
                 sum(region(n) for n in SHARED_REGION_NAMES))
    natural = sum(s.cycles for s in steps)
    if kernel_switch:
        if sim.cfg.pad_cycles > 0:
            if natural > sim.cfg.pad_cycles:
                raise PadOverrun(f"switch cost {natural} exceeds pad {sim.cfg.pad_cycles}")
            step(10, "pad", sim.cfg.pad_cycles - natural)
        step(11, "reprogram_timer", kp.timer_cycles)
    step(12, "return", kp.return_cycles)
    return SwitchTrace(steps, kernel_switch, natural, sum(s.cycles for s in steps))


@dataclass(frozen=True)
class Frame:
    """One physical page, its colour kept next to its address."""

    phys_addr: int
    colour: int


class ReferencePartition:
    """The Frame-based allocator that page-number pools replaced. It builds
    one Frame per page, routes the frames past the boot ones one at a time
    onto per-colour FIFO lists, then pushes each boot frame onto the head of
    its colour's reserve list, so boot frames end up newest first. Its
    interface speaks page numbers, as ColourPartition's does, so it can back
    a Simulator too."""

    def __init__(self, frames: int, colours: int, boot: int,
                 domain_colours: dict, page_bytes: int = 4096):
        claimed: set[int] = set()
        for dom, cs in domain_colours.items():
            if claimed & set(cs):
                raise OverlappingColours(f"domain {dom!r} re-claims colours")
            claimed |= set(cs)
        self.domain_colours = {d: frozenset(c) for d, c in domain_colours.items()}
        self.colours, self.page_bytes = colours, page_bytes
        self._owner = {c: d for d, cs in domain_colours.items() for c in cs}
        self.pools: dict = {d: {} for d in domain_colours}
        self.reserve: dict = {}
        frame_list = [Frame(i * page_bytes, i % colours) for i in range(frames)]
        for f in frame_list[boot:]:
            owner = self._owner.get(f.colour)
            pool = self.pools[owner] if owner is not None else self.reserve
            pool.setdefault(f.colour, []).append(f)
        for f in frame_list[:boot]:
            self.reserve.setdefault(f.colour, []).insert(0, f)

    def _pool(self, domain):
        return self.pools[domain] if self.domain_colours.get(domain) else self.reserve

    def pool_size(self, domain) -> int:
        return sum(len(v) for v in self._pool(domain).values())

    def _take(self, pool, colour, who) -> int:
        if colour is not None:
            if not pool.get(colour):
                raise PoolExhausted(f"no colour-{colour} frame left for {who}")
            return pool[colour].pop(0).phys_addr // self.page_bytes
        for c in sorted(pool):
            if pool[c]:
                return pool[c].pop(0).phys_addr // self.page_bytes
        raise PoolExhausted(f"no frame left for {who}")

    def _frame(self, domain, colour) -> int:
        if not self.domain_colours.get(domain):
            return self._take(self.reserve, colour, "reserve")
        pool = self.pools[domain]
        if colour is not None:
            if colour not in self.domain_colours[domain]:
                raise PoolExhausted(f"colour {colour} not owned by domain {domain!r}")
            return self._take(pool, colour, domain)
        colours = [c for c in sorted(self.domain_colours[domain]) if pool.get(c)]
        if not colours:
            raise PoolExhausted(f"no frame left for {domain}")
        counts = {c: len(pool[c]) for c in colours}
        best = max(counts.values())
        pick = next(c for c in colours if counts[c] == best)
        return pool[pick].pop(0).phys_addr // self.page_bytes

    def allocate(self, domain, n=1, colour=None) -> list[int]:
        # all or nothing: a request that runs out puts back what it took
        pool = self._pool(domain)
        saved = {c: list(frames) for c, frames in pool.items()}
        try:
            return [self._frame(domain, colour) for _ in range(n)]
        except PoolExhausted:
            pool.clear()
            pool.update(saved)
            raise

    def page_lists(self, domain) -> dict[int, list[int]]:
        """The domain's pool (the reserve for None) as page numbers per
        non-empty colour, in allocation order."""
        pool = self.reserve if domain is None else self.pools[domain]
        return {c: [f.phys_addr // self.page_bytes for f in frames]
                for c, frames in sorted(pool.items()) if frames}

    def release(self, domain, pages):
        for p in pages:
            f = Frame(p * self.page_bytes, p % self.colours)
            self._pool(domain).setdefault(f.colour, []).append(f)
