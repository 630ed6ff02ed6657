"""Independent reference computations used to pin expected test values.

These deliberately avoid the code paths they check: the MI oracles integrate
with dense Simpson/trapezoid quadrature over directly-evaluated densities
(the library bins samples onto a grid and convolves), the LRU reference is a
dict-based re-implementation, and the colour checks are brute force.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import simpson

from tcsim.stats import silverman_bandwidth


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


def pools_cache_disjoint(frames_a, frames_b, geometry, page_bytes: int) -> bool:
    """Brute-force pairwise check that no cache set is reachable from frames
    of both pools."""
    sets_a = set()
    for f in frames_a:
        sets_a |= frame_sets(f.phys_addr, geometry, page_bytes)
    for f in frames_b:
        if sets_a & frame_sets(f.phys_addr, geometry, page_bytes):
            return False
    return True
