"""Leakage statistics tests: KDE, MI, shuffle bound, channel matrix.

Expected values for the mixture datasets were computed first with the
independent quadrature oracles in oracles.py and frozen here.
"""

import ast
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (analytic_mixture_mi, estimate_density,
                     gaussian_mixture_dataset, percentile_bandwidth,
                     quadrature_kde_mi, reference_bound, reference_mi)
from tcsim import stats
from tcsim.stats import (DegenerateAlphabet, GridUnbuildable, TooFewSamples,
                         _quantile, channel_matrix, estimate_mi, leak_verdict,
                         silverman_bandwidth, zero_leakage_bound)

# analytic MI (bits) of uniform mixtures of unit Gaussians at means 0, d, ...
# frozen from oracles.analytic_mixture_mi at 2**19 quadrature nodes
TRUE_MIXTURE_MI = {
    (2, 0.5): 0.043730,
    (2, 1.0): 0.160747,
    (2, 2.0): 0.485944,
    (2, 4.0): 0.912822,
    (3, 0.5): 0.111167,
    (3, 1.0): 0.366165,
    (3, 2.0): 0.893237,
    (3, 4.0): 1.468725,
    (4, 0.5): 0.195960,
    (4, 1.0): 0.576508,
    (4, 2.0): 1.219413,
    (4, 4.0): 1.869233,
}


class TestDensity:
    def test_degenerate_spike(self):
        d = estimate_density(np.zeros(100))
        assert d.bandwidth == pytest.approx(1e-6)
        assert d.pdf(0.0)[0] > 1e5

    def test_unit_gaussian_density_at_zero(self):
        rng = np.random.default_rng(42)
        d = estimate_density(rng.standard_normal(10_000))
        assert d.pdf(0.0)[0] == pytest.approx(0.3989, abs=0.02)

    def test_single_sample_rejected(self):
        with pytest.raises(TooFewSamples):
            estimate_density([1.0])

    def test_silverman_rule(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        sd = float(np.std(x, ddof=1))
        iqr = float(np.percentile(x, 75) - np.percentile(x, 25))
        expected = 1.06 * min(sd, iqr / 1.34) * 1000 ** (-0.2)
        assert silverman_bandwidth(x) == pytest.approx(expected)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(3)
        d = estimate_density(rng.standard_normal(500))
        x = np.linspace(-8, 8, 4001)
        assert np.trapezoid(d.pdf(x), x) == pytest.approx(1.0, abs=1e-3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
       st.floats(1e-9, 1e4), st.floats(1e-9, 10.0), st.integers(16, 512))
def test_binned_density_has_one_value_per_grid_point(samples, h, step, points):
    # a bandwidth of many grid steps must not give a kernel longer than the
    # grid: "same"-mode convolution would return the kernel's length
    x = np.array(samples)
    dens = stats._binned_density(x, h, float(x.min()), step, points)
    assert dens.shape == (points,)
    assert np.all(np.isfinite(dens))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
       st.floats(1e-9, 1e4), st.floats(1e-9, 10.0), st.integers(16, 512))
def test_binned_density_has_the_bits_of_convolve(samples, h, step, points):
    # the kernel is correlated unreversed, which is exact only because it is
    # symmetric; the reference builds histogram and kernel the same way
    x = np.array(samples)
    lo = float(x.min())
    pos = (x - lo) / step
    left = np.clip(np.floor(pos).astype(int), 0, points - 1)
    frac = pos - np.floor(pos)
    hist = np.bincount(left, weights=1.0 - frac, minlength=points)
    hist += np.bincount(np.minimum(left + 1, points - 1), weights=frac, minlength=points)
    radius = min((points - 1) // 2, max(1, int(np.ceil(4 * h / step))))
    kernel = np.exp(-0.5 * ((np.arange(-radius, radius + 1) * step) / h) ** 2)
    kernel /= kernel.sum()
    want = np.convolve(hist, kernel, "same") / (len(x) * step)
    got = stats._binned_density(x, h, lo, step, points)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _at_offset(values: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``values`` starting ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(len(values) + 16)
    start = (-buf.ctypes.data % 64 + offset) // 8
    out = buf[start:start + len(values)]
    out[...] = values
    return out


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(16, 4097), st.integers(0, 2**32 - 1))
def test_aligned_correlation_has_the_bits_of_convolve(data, points, seed):
    # the kernel's capped radius keeps it no longer than the histogram;
    # its values are not symmetric, so a missing reversal would show
    radius = data.draw(st.integers(1, (points - 1) // 2), label="radius")
    rng = np.random.default_rng(seed)
    hist = np.zeros(points)
    filled = rng.integers(0, points, rng.integers(1, 60))
    hist[filled] = rng.random(len(filled)) * 10.0
    kernel = rng.random(2 * radius + 1)
    kernel /= kernel.sum()
    want = np.convolve(hist, kernel, mode="same").view(np.int64)
    reversed_kernel = kernel[::-1]
    got = np.correlate(hist, stats._cache_aligned(reversed_kernel), mode="same")
    assert np.array_equal(got.view(np.int64), want)
    for hist_offset in range(0, 64, 8):
        h = _at_offset(hist, hist_offset)
        for kernel_offset in range(0, 64, 8):
            k = _at_offset(reversed_kernel, kernel_offset)
            got = np.correlate(h, k, mode="same")
            assert np.array_equal(got.view(np.int64), want), (hist_offset, kernel_offset)


def test_cache_aligned_copy_starts_on_a_cache_line():
    rng = np.random.default_rng(13)
    for n in range(1, 4098):
        values = rng.random(n)
        out = stats._cache_aligned(values[::-1])
        assert out.ctypes.data % 64 == 0
        assert np.array_equal(out, values[::-1])


class TestEstimateMi:
    def test_constant_channel_exactly_zero(self):
        inputs = ["a"] * 50 + ["b"] * 50
        outputs = np.full(100, 7.25)
        m = estimate_mi(inputs, outputs)
        assert m.value_bits == 0.0
        assert not m.clamped

    def test_disjoint_supports_one_bit(self):
        rng = np.random.default_rng(7)
        inputs = rng.integers(0, 2, 4000)
        outputs = np.where(inputs == 1, 1000.0, 0.0) + rng.standard_normal(4000)
        assert estimate_mi(inputs, outputs).value_bits == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("d", [0.5, 1.0, 2.0, 4.0])
    def test_binary_gaussian_matches_quadrature_oracle(self, d):
        inputs, outputs = gaussian_mixture_dataset(2, d, 10_000, seed=2025)
        est = estimate_mi(inputs, outputs).value_bits
        oracle = quadrature_kde_mi(inputs, outputs)
        assert est == pytest.approx(oracle, abs=0.02)

    def test_tracks_analytic_truth(self):
        inputs, outputs = gaussian_mixture_dataset(2, 2.0, 10_000, seed=11)
        est = estimate_mi(inputs, outputs).value_bits
        assert est == pytest.approx(TRUE_MIXTURE_MI[(2, 2.0)], abs=0.06)

    def test_permutation_invariance(self):
        inputs, outputs = gaussian_mixture_dataset(3, 1.0, 600, seed=5)
        m1 = estimate_mi(inputs, outputs).value_bits
        perm = np.random.default_rng(1).permutation(len(inputs))
        m2 = estimate_mi(inputs[perm], outputs[perm]).value_bits
        assert m1 == pytest.approx(m2, abs=1e-12)

    def test_merging_symbols_cannot_gain_information(self):
        # collapsing two separated symbols into one label loses information
        rng = np.random.default_rng(9)
        inputs = rng.integers(0, 3, 6000)
        outputs = inputs * 5.0 + rng.standard_normal(6000)
        full = estimate_mi(inputs, outputs).value_bits
        merged = np.where(inputs == 2, 1, inputs)
        assert estimate_mi(merged, outputs).value_bits < full

    def test_requires_two_symbols(self):
        with pytest.raises(DegenerateAlphabet):
            estimate_mi(["a"] * 10, np.arange(10.0))

    def test_requires_two_samples_per_symbol(self):
        with pytest.raises(TooFewSamples):
            estimate_mi(["a", "a", "b"], np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("outputs", [
        np.full(100, 1e15),  # eps vanishes next to the outputs: a zero step
        np.tile([1.7e308, -1.7e308], 50),  # the span overflows
        np.tile([1.7e308, 1.7e308, -1.7e308, -1.7e308], 25),  # and the bandwidths
    ], ids=["zero step", "infinite span", "infinite bandwidth"])
    def test_unbuildable_grid_is_named(self, outputs):
        inputs = ["a", "b"] * 50
        with pytest.raises(GridUnbuildable, match="no KDE grid spans outputs"):
            estimate_mi(inputs, outputs)
        with pytest.raises(GridUnbuildable):
            zero_leakage_bound(inputs, outputs, shuffles=4)

    def test_non_negative_even_on_noise(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m = estimate_mi(rng.integers(0, 2, 200), rng.standard_normal(200))
            assert m.value_bits >= 0.0


class TestZeroLeakageBound:
    def test_shuffles_preserve_output_multiset(self):
        inputs, outputs = gaussian_mixture_dataset(2, 1.0, 400, seed=3)
        # permutation invariance of the multiset is structural: permuting the
        # output column cannot change sorted outputs
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(outputs))
        assert np.array_equal(np.sort(outputs[perm]), np.sort(outputs))

    def test_bound_fields(self):
        inputs, outputs = gaussian_mixture_dataset(2, 0.0, 300, seed=8)
        b = zero_leakage_bound(inputs, outputs, shuffles=50, seed=4)
        assert len(b.shuffle_mis) == 50
        assert b.bound_bits == pytest.approx(b.mean + 1.645 * b.sd)
        assert b.bound_bits >= 0

    def test_deterministic_leak_dwarfs_bound(self):
        rng = np.random.default_rng(17)
        inputs = rng.integers(0, 2, 2000)
        outputs = inputs * 100.0 + rng.standard_normal(2000)
        v = leak_verdict(inputs, outputs, shuffles=100, seed=5)
        assert v.leak
        assert v.m.value_bits > 10 * v.m0.bound_bits

    def test_zero_dependence_mostly_no_leak(self):
        false_count = 0
        for i in range(20):
            rng = np.random.default_rng(900 + i)
            inputs = rng.integers(0, 4, 1500)
            outputs = rng.standard_normal(1500)
            v = leak_verdict(inputs, outputs, shuffles=100, seed=900 + i)
            false_count += (not v.leak)
        assert false_count >= 18

    def test_small_true_leaks_reliably_flagged(self):
        # 0.16 analytic bits at n=10,000 is far outside the shuffle bound
        for seed in range(2000, 2012):
            rng = np.random.default_rng(seed)
            inputs = rng.integers(0, 2, 10_000)
            outputs = inputs * 1.0 + rng.standard_normal(10_000)
            assert leak_verdict(inputs, outputs, shuffles=100, seed=seed + 5).leak

    def test_one_estimate_per_verdict(self, monkeypatch):
        calls = []
        real = stats.estimate_mi
        monkeypatch.setattr(stats, "estimate_mi",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        inputs, outputs = gaussian_mixture_dataset(2, 1.0, 200, seed=6)
        stats.leak_verdict(inputs, outputs, shuffles=10, seed=1)
        assert len(calls) == 1

    def test_verdict_strictness(self):
        # identical constant outputs: M == M0 == 0 must NOT count as a leak
        inputs = ["a", "a", "b", "b"] * 30
        outputs = np.full(120, 5.0)
        v = leak_verdict(inputs, outputs, shuffles=20, seed=0)
        assert v.m.value_bits == 0.0 and v.m0.bound_bits == 0.0
        assert not v.leak


class TestSharedPlan:
    """A verdict's M and M0 each equal what they are when computed alone."""

    @pytest.mark.parametrize("symbols", [2, 4, 16])
    def test_verdict_equals_separate_calls(self, symbols):
        rng = np.random.default_rng(symbols)
        codes = rng.integers(0, symbols, 40 * symbols)
        inputs = [str(c) for c in codes]  # as read from a samples CSV
        outputs = 300.0 + 4.0 * (codes % 3) + rng.normal(0.0, 2.0, len(codes))
        v = leak_verdict(inputs, outputs, shuffles=20, seed=11, grid_points=1024)
        assert v.m == estimate_mi(inputs, outputs, grid_points=1024)
        assert v.m0 == zero_leakage_bound(inputs, outputs, 20, 11, grid_points=1024)
        assert v.leak == (v.m.value_bits > v.m0.bound_bits)


def _bound_cases() -> dict:
    """Datasets for the bit-equality checks against the regrouping reference."""
    rng = np.random.default_rng(4242)
    cases = {}
    inputs = rng.permutation(np.repeat([0, 1, 2], [40, 150, 25]))
    cases["int symbols, unequal groups"] = (
        inputs, 100.0 + 3.0 * inputs + rng.standard_normal(len(inputs)))
    inputs = rng.choice(["hit", "miss", "evict", "idle"], 400)
    cases["str symbols"] = (
        inputs, rng.normal(200.0, 5.0, 400) + (inputs == "miss") * 8.0)
    inputs = rng.integers(0, 4, 500)
    cases["ties"] = (inputs, np.round(rng.normal(1000.0, 2.0, 500) + inputs))
    cases["constant group"] = (
        np.repeat(["a", "b"], 60),
        np.concatenate([np.full(60, 7.25), rng.normal(9.0, 1.0, 60)]))
    # shuffled groups keep a zero IQR but a positive sd: the eps branch
    outputs = np.full(300, 50.0)
    outputs[rng.choice(300, 6, replace=False)] = [40.0, 55.0, 61.0, 70.0, 80.0, 90.0]
    cases["mostly constant"] = (rng.integers(0, 3, 300), outputs)
    cases["two-sample groups"] = (np.array([0, 0, 1, 1, 2, 2, 2, 3, 3]),
                                  rng.normal(10.0, 1.0, 9))
    return cases


BOUND_CASES = _bound_cases()


class TestGroupedBound:
    """The shuffle bound indexes each symbol once and reads every shuffle's
    groups through those indices; it must give the very bits of regrouping
    and fully re-estimating every shuffle with np.percentile quartiles."""

    @pytest.mark.parametrize("case", list(BOUND_CASES))
    def test_bit_identical_to_regrouping_reference(self, case):
        inputs, outputs = BOUND_CASES[case]
        b = zero_leakage_bound(inputs, outputs, shuffles=30, seed=7)
        ref_mis, ref_bound = reference_bound(inputs, outputs, shuffles=30, seed=7)
        assert b.shuffle_mis == ref_mis
        assert b.bound_bits == ref_bound
        m = estimate_mi(inputs, outputs)
        ref_m, ref_bands, ref_lo, ref_hi = reference_mi(inputs, outputs)
        assert m.value_bits == ref_m
        assert m.bandwidths == ref_bands
        assert (m.grid_lo, m.grid_hi) == (ref_lo, ref_hi)

    def test_cases_reach_the_eps_branch(self):
        assert estimate_mi(*BOUND_CASES["constant group"]).bandwidths["a"] == 1e-6
        assert estimate_mi(*BOUND_CASES["mostly constant"]).bandwidths["0"] == 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 101])
    def test_bandwidth_matches_percentile_rule(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        assert silverman_bandwidth(x) == percentile_bandwidth(x)


def _bits(v) -> tuple:
    return (v.m.value_bits, v.m0.shuffle_mis, v.m0.bound_bits, v.leak)


def _wait_for_exit(pid: int, timeout: float = 60.0) -> int:
    """The exit status of child ``pid``; kills it after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    raise AssertionError(f"child {pid} did not exit within {timeout} s")


def _assert_no_helper_left(threads_before):
    """No helper thread outlives the bound that started it."""
    assert threading.active_count() == threads_before
    assert not [t for t in threading.enumerate() if t.name == "tcsim-stats"]


class TestHelperThread:
    """A bound's shuffles are run on the calling thread and one helper
    thread, started and joined by the bound; the bits must be those of one
    thread alone."""

    def test_concurrent_verdicts_equal_serial_ones(self):
        cases = [BOUND_CASES[c] for c in ("int symbols, unequal groups",
                                          "str symbols", "ties")]
        serial = [_bits(leak_verdict(*case, shuffles=15, seed=3)) for case in cases]
        results = [None] * len(cases)

        def run(i):
            results[i] = _bits(leak_verdict(*cases[i], shuffles=15, seed=3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial

    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_shuffle_error_is_raised_and_the_other_thread_takes_no_more(
            self, monkeypatch, failing):
        inputs, outputs = BOUND_CASES["str symbols"]
        other = "helper" if failing == "caller" else "caller"
        caller = threading.get_ident()
        runs = {"caller": 0, "helper": 0}
        started_after_error = []
        failed = threading.Event()
        real = stats._mi_bits

        def mi_bits(*args):
            side = "caller" if threading.get_ident() == caller else "helper"
            if side == other:
                if failed.is_set():
                    started_after_error.append(runs[side])
                failed.wait(30)  # leave the failing thread the first shuffles
            runs[side] += 1
            if side == failing and runs[side] == 3:
                failed.set()
                raise FloatingPointError("injected")
            return real(*args)

        threads_before = threading.active_count()
        monkeypatch.setattr(stats, "_mi_bits", mi_bits)
        with pytest.raises(FloatingPointError, match="injected"):
            zero_leakage_bound(inputs, outputs, shuffles=40, seed=7)
        after_return = dict(runs)
        _assert_no_helper_left(threads_before)
        time.sleep(0.2)  # a thread left running would start more shuffles
        monkeypatch.undo()
        assert runs == after_return
        assert runs[failing] == 3
        # the other thread finishes the shuffle it was computing and at most
        # one that it took before the drain; then it takes no more
        assert runs[other] <= 2 and len(started_after_error) <= 1
        if failing == "helper":
            assert runs[other] >= 1
        b = zero_leakage_bound(inputs, outputs, shuffles=5, seed=7)
        assert b.shuffle_mis == reference_bound(inputs, outputs, shuffles=5, seed=7)[0]

    def test_a_slow_caller_leaves_the_helper_most_shuffles_with_the_same_bits(
            self, monkeypatch):
        inputs, outputs = BOUND_CASES["int symbols, unequal groups"]
        caller = threading.get_ident()
        drawn = {"caller": [], "helper": []}  # draw numbers each thread took
        taken = {}  # thread -> the draw number it is computing
        done = []  # draw numbers in the order their MIs were computed
        real_rng, real_mi = np.random.default_rng, stats._mi_bits

        class SlowCallerDraws:
            def __init__(self, seed):
                self.rng, self.count = real_rng(seed), 0

            def permutation(self, n):
                on_caller = threading.get_ident() == caller
                if on_caller:
                    time.sleep(0.005)
                drawn["caller" if on_caller else "helper"].append(self.count)
                taken[threading.get_ident()] = self.count
                self.count += 1
                return self.rng.permutation(n)

        def mi_bits(*args):
            if threading.get_ident() == caller:
                time.sleep(0.02)
            out = real_mi(*args)
            done.append(taken[threading.get_ident()])
            return out

        monkeypatch.setattr(np.random, "default_rng", SlowCallerDraws)
        monkeypatch.setattr(stats, "_mi_bits", mi_bits)
        b = zero_leakage_bound(inputs, outputs, shuffles=30, seed=7)
        monkeypatch.undo()
        assert drawn["caller"] and len(drawn["helper"]) > len(drawn["caller"])
        assert sorted(done) == list(range(30)) and done != sorted(done)
        ref_mis, ref_bound = reference_bound(inputs, outputs, shuffles=30, seed=7)
        assert b.shuffle_mis == ref_mis
        assert b.bound_bits == ref_bound

    def test_no_helper_thread_outlives_a_bound(self):
        before = threading.active_count()
        inputs, outputs = BOUND_CASES["ties"]
        for seed in range(20):
            leak_verdict(inputs, outputs, shuffles=3, seed=seed)
        _assert_no_helper_left(before)

    def test_forked_child_verdict_has_parent_bits_and_leaves_one_thread(self):
        inputs, outputs = BOUND_CASES["int symbols, unequal groups"]
        parent = _bits(leak_verdict(inputs, outputs, shuffles=10, seed=5))
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: one verdict, then its bits and thread count
            code = 1
            try:
                os.close(read)
                bits = _bits(leak_verdict(inputs, outputs, shuffles=10, seed=5))
                with os.fdopen(write, "w") as out:
                    out.write(repr((bits, threading.active_count())))
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        with os.fdopen(read) as got:
            text = got.read()
        assert _wait_for_exit(pid) == 0
        bits, threads = ast.literal_eval(text)
        assert bits == parent
        assert threads == 1  # the child's main thread; its helper was joined


# Signed zeros are left out: -0.0 and 0.0 tie in a sort, so which one a
# zero quartile carries depends on the sort algorithm, not on the rule.
_FINITE = st.floats(-1e300, 1e300).map(lambda v: v + 0.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_FINITE, st.sampled_from([0.0, 1.0, 2.5, -3.0])),
                min_size=2, max_size=64))
def test_quartiles_bit_identical_to_numpy_percentile(xs):
    x = np.array(xs)
    ordered = np.sort(x)
    got = np.array([_quantile(ordered, 0.75), _quantile(ordered, 0.25)])
    assert got.tobytes() == np.percentile(x, [75, 25]).tobytes()


class TestChannelMatrix:
    def test_rows_sum_to_one(self):
        inputs, outputs = gaussian_mixture_dataset(3, 1.0, 900, seed=2)
        _, _, matrix = channel_matrix(inputs, outputs, bins=16)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_channel_one_hot_rows(self):
        inputs = np.array([0, 0, 1, 1, 2, 2])
        outputs = np.array([0.0, 0.0, 10.0, 10.0, 20.0, 20.0])
        _, _, matrix = channel_matrix(inputs, outputs, bins=4)
        for row in matrix:
            assert np.count_nonzero(row) == 1
            assert row.max() == 1.0

    def test_bins_validated(self):
        with pytest.raises(ValueError):
            channel_matrix([0, 1], [0.0, 1.0], bins=1)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 4), st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 10_000))
def test_mi_non_negative_and_bounded(k, d, seed):
    inputs, outputs = gaussian_mixture_dataset(k, d, 400, seed)
    m = estimate_mi(inputs, outputs)
    assert 0.0 <= m.value_bits <= np.log2(k) + 0.05


def test_oracle_table_is_current():
    # guards the frozen constants against oracle drift
    for (k, d), frozen in TRUE_MIXTURE_MI.items():
        assert analytic_mixture_mi([i * d for i in range(k)]) == pytest.approx(
            frozen, abs=5e-6)
