"""Leakage measurement: KDE, mutual information, and the zero-leakage bound.

A channel dataset pairs discrete input symbols with continuous timing
outputs. The output distribution of each symbol is estimated with a Gaussian
kernel (Silverman bandwidth), mutual information against a uniform input
prior is integrated with the rectangle method on a shared grid, and the
measured value is compared with a bound obtained by shuffling outputs to
random inputs 100 times: a leak is declared iff M > M0, strictly.

Densities are evaluated by linear binning plus discrete convolution with the
kernel, which is numerically indistinguishable from direct summation here
(the grid step is far below any bandwidth) and fast enough to pay for the 100
shuffle re-estimates. The test suite cross-checks it against a direct
Gaussian-sum density. The convolution is most of a verdict's time: one BLAS
dot product per grid point, each reading the whole reversed kernel. That
kernel is therefore handed over in a buffer that starts on a 64-byte cache
line, where wide vector loads do not straddle two lines; it is the same
arithmetic on the same values, so the densities keep their bits.

A dataset is validated and grouped by symbol once; an output permutation
only changes which values each symbol's index array picks, so every shuffle
reuses the grouping.

The statistics use up to two cores. Each estimate's per-symbol densities are
shared between the calling thread and one long-lived helper thread, started
on the first estimate (importing the module starts none), and two
convolutions run at once. Wall time falls and CPU time rises by about
15%; the mixture, the MI sum and the order of the permutations are
computed as before on the calling thread, so every bit is kept.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

Z_95 = 1.645  # one-sided upper 95% quantile of the standard normal


class TooFewSamples(ValueError):
    """Fewer than two samples for a symbol (or overall)."""


class DegenerateAlphabet(ValueError):
    """Fewer than two distinct input symbols in the dataset."""


def _quantile(ordered: np.ndarray, q: float) -> float:
    """Quantile q of sorted samples, bit-identical to ``np.percentile`` at
    100*q: numpy's linear rule at index (n-1)*q, interpolated in the two
    directions numpy's ``_lerp`` uses."""
    pos = (len(ordered) - 1) * q
    i = int(pos)
    t = pos - i
    a, b = float(ordered[i]), float(ordered[i + 1])
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def silverman_bandwidth(samples: np.ndarray, eps: float = 1e-6) -> float:
    """1.06 * min(sd, IQR/1.34) * n^(-1/5); zero-spread input degrades to eps."""
    n = len(samples)
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    sd = float(np.std(samples, ddof=1))
    ordered = np.sort(samples)
    spread = min(sd, (_quantile(ordered, 0.75) - _quantile(ordered, 0.25)) / 1.34)
    if spread <= 0:
        return eps
    return float(1.06 * spread * n ** (-1 / 5))


@dataclass(frozen=True)
class MiEstimate:
    """Estimated mutual information in bits, with the integration grid used.
    Negative numerical results are clamped to zero and flagged."""

    value_bits: float
    grid_lo: float
    grid_hi: float
    grid_points: int
    clamped: bool = False
    bandwidths: dict = field(default_factory=dict)
    n: int = 0

    @property
    def value_millibits(self) -> float:
        return self.value_bits * 1e3


@dataclass(frozen=True)
class ZeroLeakageBound:
    """Upper 95% bound on MI estimates of dependence-free shuffles of the
    dataset: mean + 1.645 * sd over ``shuffle_count`` trials."""

    bound_bits: float
    shuffle_count: int
    shuffle_mis: tuple
    mean: float
    sd: float
    seed: int = 0


@dataclass(frozen=True)
class LeakVerdict:
    leak: bool
    m: MiEstimate
    m0: ZeroLeakageBound


def _index(inputs, outputs):
    """(sorted symbols, float outputs, one index array per symbol)."""
    inputs = np.asarray(inputs)
    outputs = np.asarray(outputs, dtype=float)
    if inputs.shape != outputs.shape or inputs.ndim != 1:
        raise ValueError("inputs and outputs must be equal-length 1-d arrays")
    symbols = sorted(set(inputs.tolist()), key=str)
    return symbols, outputs, [np.flatnonzero(inputs == s) for s in symbols]


def _mi_plan(inputs, outputs):
    """Validate a dataset for MI estimation and index it by symbol, once."""
    symbols, outputs, index = _index(inputs, outputs)
    if len(symbols) < 2:
        raise DegenerateAlphabet(f"need >= 2 input symbols, got {len(symbols)}")
    for s, idx in zip(symbols, index):
        if len(idx) < 2:
            raise TooFewSamples(f"symbol {s!r} has {len(idx)} samples")
    return symbols, outputs, index


def _cache_aligned(values: np.ndarray) -> np.ndarray:
    """A float64 copy of ``values`` whose data starts on a 64-byte boundary."""
    buf = np.empty(len(values) + 8)
    start = (-buf.ctypes.data % 64) // 8
    out = buf[start:start + len(values)]
    out[...] = values
    return out


def _binned_density(samples: np.ndarray, h: float, lo: float, step: float,
                    points: int) -> np.ndarray:
    """KDE on a uniform grid via linear binning + discrete-kernel convolution.
    The kernel is cut at 4 bandwidths, and at the grid's length: a kernel
    longer than the grid would make the "same"-mode convolution longer too.

    ``np.convolve(hist, kernel)`` is ``np.correlate(hist, kernel[::-1])``
    with the reversed kernel copied into a fresh heap buffer, which is only
    16-byte aligned and lands wherever heap history puts it. Here the
    reversed copy starts on a cache line instead. The BLAS dot products are
    the same calls on the same values, their summation order does not depend
    on alignment, and the capped kernel is never longer than the histogram,
    so neither call swaps its operands: the bits equal ``np.convolve``'s."""
    pos = (samples - lo) / step
    floor = np.floor(pos)
    left = np.clip(floor.astype(int), 0, points - 1)
    right = np.minimum(left + 1, points - 1)
    frac = pos - floor
    hist = np.bincount(left, weights=1.0 - frac, minlength=points)
    hist += np.bincount(right, weights=frac, minlength=points)
    radius = min((points - 1) // 2, max(1, int(math.ceil(4 * h / step))))
    t = np.arange(-radius, radius + 1) * step
    kernel = np.exp(-0.5 * (t / h) ** 2)
    kernel /= kernel.sum()
    dens = np.correlate(hist, _cache_aligned(kernel[::-1]), mode="same")
    return dens / (len(samples) * step)


_jobs = None  # the helper thread's job queue, made on first use


def _forget_helper():
    """A forked child has no helper thread: drop the parent's job queue, so
    that the child's next estimate starts a helper of its own."""
    global _jobs
    _jobs = None


os.register_at_fork(after_in_child=_forget_helper)


def _serve(jobs):
    while True:
        jobs.get()()


def _densities(groups: list, bands: list, lo: float, step: float,
               points: int) -> list:
    """Each group's ``_binned_density``, computed on this thread and on the
    helper thread at once: the convolution's BLAS loop releases the GIL.

    Both threads take symbol indices from one range iterator, whose next()
    hands out each index once, and store each density by its index. A
    density is the same pure call whichever thread runs it, so the list has
    the bits of computing it on one thread. The helper holds ``busy`` while
    it works on this call; taking it afterwards waits for the density the
    helper may still be computing. A job the helper takes up only after
    that finds no index left and does nothing."""
    global _jobs
    if _jobs is None:
        from queue import SimpleQueue
        _jobs = SimpleQueue()
        threading.Thread(target=_serve, args=(_jobs,), name="tcsim-stats",
                         daemon=True).start()
    dens = [None] * len(groups)
    todo = iter(range(len(groups)))
    busy = threading.Lock()
    errors = []

    def work():
        for s in todo:
            dens[s] = _binned_density(groups[s], bands[s], lo, step, points)

    def help_out():
        with busy:
            try:
                work()
            except BaseException as exc:  # raised on the calling thread below
                errors.append(exc)

    _jobs.put(help_out)
    try:
        work()
    finally:
        for _ in todo:  # after an error, leave the helper nothing to take
            pass
        with busy:
            pass
    if errors:
        raise errors[0]
    return dens


def _mi_bits(groups: list, out_min: float, out_max: float, grid_points: int,
             eps: float) -> tuple[float, list, float, float]:
    """Unclamped MI of per-symbol output groups whose pooled range is
    [out_min, out_max]: (mi, bandwidths, grid lo, grid hi)."""
    bands = [silverman_bandwidth(g, eps) for g in groups]
    h_max = max(bands)
    lo = out_min - 3 * h_max
    hi = out_max + 3 * h_max
    step = (hi - lo) / (grid_points - 1)
    prior = 1.0 / len(groups)
    dens = _densities(groups, bands, lo, step, grid_points)
    mixture = prior * np.sum(dens, axis=0)
    mi = 0.0
    for f_i in dens:
        mask = f_i > 1e-300
        f_m = f_i[mask]
        mi += prior * float(np.sum(f_m * np.log2(f_m / mixture[mask]))) * step
    return mi, bands, lo, hi


def estimate_mi(inputs, outputs, *, grid_points: int = 4096,
                eps: float = 1e-6) -> MiEstimate:
    """MI in bits between a uniform prior on the observed input symbols and
    the per-symbol output densities, by the rectangle method.

    The grid spans [min - 3*h_max, max + 3*h_max] uniformly. Per-symbol terms
    with negligible density are skipped; the ratio f_i/f is bounded above by
    the inverse prior, so the integrand is well conditioned.
    """
    symbols, outputs, index = _mi_plan(inputs, outputs)
    mi, bands, lo, hi = _mi_bits([outputs[i] for i in index],
                                 float(outputs.min()), float(outputs.max()),
                                 grid_points, eps)
    return MiEstimate(max(mi, 0.0), lo, hi, grid_points, mi < 0,
                      bandwidths={str(s): h for s, h in zip(symbols, bands)},
                      n=len(outputs))


def zero_leakage_bound(inputs, outputs, shuffles: int = 100, seed: int = 0, *,
                       grid_points: int = 4096, eps: float = 1e-6) -> ZeroLeakageBound:
    """Destroy input/output dependence by permuting the output column, re-run
    the MI estimate, and repeat; the bound is mean + 1.645*sd of the trials.

    Shuffle k's group for symbol s is ``outputs[perm[index_s]]``: the values,
    in order, that regrouping ``outputs[perm]`` would give."""
    _, outputs, index = _mi_plan(inputs, outputs)
    out_min, out_max = float(outputs.min()), float(outputs.max())
    rng = np.random.default_rng(seed)
    mis = []
    for _ in range(shuffles):
        perm = rng.permutation(len(outputs))
        mi = _mi_bits([outputs[perm[i]] for i in index], out_min, out_max,
                      grid_points, eps)[0]
        mis.append(max(mi, 0.0))
    mean = float(np.mean(mis))
    sd = float(np.std(mis, ddof=1)) if shuffles > 1 else 0.0
    return ZeroLeakageBound(mean + Z_95 * sd, shuffles, tuple(mis), mean, sd, seed)


def leak_verdict(inputs, outputs, shuffles: int = 100, seed: int = 0, *,
                 grid_points: int = 4096, eps: float = 1e-6) -> LeakVerdict:
    m = estimate_mi(inputs, outputs, grid_points=grid_points, eps=eps)
    m0 = zero_leakage_bound(inputs, outputs, shuffles, seed,
                            grid_points=grid_points, eps=eps)
    return LeakVerdict(m.value_bits > m0.bound_bits, m, m0)


def channel_matrix(inputs, outputs, bins: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Conditional probability of each output bin given each input symbol.

    Outputs are binned uniformly over their observed range; row (i) holds
    count(i, b) / count(i). Returns (symbols, bin_edges, matrix).
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    symbols, outputs, index = _index(inputs, outputs)
    groups = [outputs[i] for i in index]
    out_all = np.concatenate(groups)
    lo, hi = float(out_all.min()), float(out_all.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    matrix = np.zeros((len(symbols), bins))
    for row, g in enumerate(groups):
        counts, _ = np.histogram(g, bins=edges)
        matrix[row] = counts / len(g)
    return symbols, edges, matrix


def report_record(verdict: LeakVerdict) -> dict:
    """Structured summary of one measurement, suitable for JSON output."""
    m, m0 = verdict.m, verdict.m0
    return {
        "m_bits": m.value_bits,
        "m_millibits": m.value_millibits,
        "m0_bits": m0.bound_bits,
        "m0_millibits": m0.bound_bits * 1e3,
        "leak": verdict.leak,
        "n": m.n,
        "bandwidths": m.bandwidths,
        "grid": {"lo": m.grid_lo, "hi": m.grid_hi, "points": m.grid_points},
        "clamped": m.clamped,
        "shuffles": m0.shuffle_count,
        "shuffle_seed": m0.seed,
        "shuffle_mean_bits": m0.mean,
        "shuffle_sd_bits": m0.sd,
        "method": {
            "kde": "gaussian kernel, silverman bandwidth",
            "integration": "rectangle method on uniform grid",
            "bound": "one-sided normal approximation, mean + 1.645*sd",
        },
    }
