"""Acceptance suite: the exit criteria of the build, one test per criterion.

Each test prints one PASS line when its assertions hold (run with -s or -rP
to see them). Criteria that depend on sampled randomness pin their seeds, so
every run of this suite is deterministic.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (analytic_mixture_mi, gaussian_mixture_dataset,
                     pools_cache_disjoint, quadrature_kde_mi)
from tcsim.channels import (ChannelSpec, run_flush_latency_channel,
                            run_interrupt_channel, run_kernel_channel,
                            run_llc_side_channel, run_prime_probe)
from tcsim.colouring import build_frames, partition_pool
from tcsim.config import parse_config
from tcsim.harness import measure_switch_costs, run_scenario
from tcsim.microarch import CacheGeometry, CacheState, LatencyParams, colour_count
from tcsim.profiles import get_profile
from tcsim.scenarios import RECEIVER, SENDER, build_scenario
from tcsim.stats import estimate_mi, leak_verdict

HASWELL = get_profile("haswell")
SABRE = get_profile("sabre")
KIB = 1024
MIB = 1024 * KIB


def ok(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion:2d}: PASS - {message}")


def test_01_mi_oracle_equivalence():
    """estimate_mi vs independent brute-force quadrature, 12 mixture datasets."""
    t0 = time.monotonic()
    worst_vs_oracle = 0.0
    worst_vs_truth = 0.0
    for k in (2, 3, 4):
        for d in (0.5, 1.0, 2.0, 4.0):
            inputs, outputs = gaussian_mixture_dataset(k, d, 10_000,
                                                       seed=20_250 + k * 10 + int(d * 2))
            est = estimate_mi(inputs, outputs).value_bits
            oracle = quadrature_kde_mi(inputs, outputs, nodes=4097)
            truth = analytic_mixture_mi([i * d for i in range(k)], points=2**17)
            worst_vs_oracle = max(worst_vs_oracle, abs(est - oracle))
            worst_vs_truth = max(worst_vs_truth, abs(est - truth))
            assert est == pytest.approx(oracle, abs=0.02), (k, d)
            assert est == pytest.approx(truth, abs=0.06), (k, d)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    ok(1, f"12 datasets within +-0.02 of quadrature oracle "
          f"(worst {worst_vs_oracle:.2e}; vs analytic truth {worst_vs_truth:.3f}; "
          f"{elapsed:.1f}s)")


def test_02_analytic_endpoints():
    inputs = ["a"] * 60 + ["b"] * 60
    m = estimate_mi(inputs, np.full(120, 3.0))
    assert m.value_bits == 0.0
    rng = np.random.default_rng(7)
    binary_in = rng.integers(0, 2, 6000)
    binary_out = np.where(binary_in == 1, 1000.0, 0.0) + rng.standard_normal(6000)
    one_bit = estimate_mi(binary_in, binary_out).value_bits
    assert one_bit == pytest.approx(1.0, abs=0.01)
    ok(2, f"constant channel M = 0 exactly; disjoint binary M = {one_bit:.4f}")


def test_03_zero_leakage_calibration():
    master = 23
    false_count = 0
    for i in range(100):
        rng = np.random.default_rng(master * 1000 + i)
        inputs = rng.integers(0, 4, 1500)
        outputs = rng.standard_normal(1500)
        verdict = leak_verdict(inputs, outputs, shuffles=100,
                               seed=master * 1000 + i + 7)
        false_count += (not verdict.leak)
    assert false_count >= 95
    ok(3, f"{false_count}/100 zero-dependence datasets judged leak-free")


def test_04_colour_arithmetic():
    page = 4096
    assert colour_count(HASWELL.geometries["l1d"], page) == 1
    assert colour_count(HASWELL.geometries["l2"], page) == 8
    assert colour_count(HASWELL.geometries["llc"], page) == 128
    assert colour_count(SABRE.geometries["l2"], page) == 16
    ok(4, "colour counts 1 (L1), 8 (x86 L2), 128 (x86 LLC), 16 (Arm L2)")


def test_05_kernel_image_channel():
    t0 = time.monotonic()
    verdicts = {}
    for scenario in ("raw", "protected"):
        spec = ChannelSpec("kernel", scenario, iterations=5000, seed=101)
        samples = run_kernel_channel(HASWELL, spec)
        verdicts[scenario] = leak_verdict(samples.inputs, samples.outputs,
                                          shuffles=100, seed=102)
    raw, prot = verdicts["raw"], verdicts["protected"]
    margin = raw.m.value_bits - raw.m0.bound_bits
    assert raw.leak and margin >= 0.1
    assert not prot.leak
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    ok(5, f"raw M={raw.m.value_bits:.3f} b exceeds M0 by {margin:.3f} b; "
          f"protected M={prot.m.value_bits * 1e3:.2f} mb <= "
          f"M0={prot.m0.bound_bits * 1e3:.2f} mb ({elapsed:.1f}s)")


def test_06_intra_core_suite():
    t0 = time.monotonic()
    lines = []
    for resource in ("l1d", "l1i", "l2", "tlb", "btb", "bhb"):
        cells = {}
        for scenario in ("raw", "full_flush", "protected"):
            spec = ChannelSpec(resource, scenario, iterations=1200, seed=203,
                               resource=resource)
            samples = run_prime_probe(HASWELL, spec)
            cells[scenario] = leak_verdict(samples.inputs, samples.outputs,
                                           shuffles=100, seed=204)
        assert cells["raw"].leak, resource
        assert not cells["full_flush"].leak, resource
        assert not cells["protected"].leak, resource
        lines.append(f"{resource}:{cells['raw'].m.value_millibits:.0f}mb")
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    ok(6, f"six resources leak raw, closed by full flush and protection "
          f"({'; '.join(lines)}; {elapsed:.1f}s)")


def test_07_flush_latency_channel():
    results = {}
    for scenario in ("raw", "protected"):
        spec = ChannelSpec("flush_latency", scenario, iterations=800, seed=303)
        samples = run_flush_latency_channel(HASWELL, spec)
        results[scenario] = samples
    unpadded = results["raw"]
    groups = {}
    for i, o in zip(unpadded.inputs, unpadded.outputs):
        groups.setdefault(int(i), []).append(o)
    means = [np.mean(groups[k]) for k in sorted(groups)]
    assert all(a < b for a, b in zip(means, means[1:]))  # monotone in footprint
    v_raw = leak_verdict(unpadded.inputs, unpadded.outputs, shuffles=100, seed=304)
    assert v_raw.leak
    padded = results["protected"]
    assert float(np.var(padded.outputs)) == 0.0  # constant before noise
    v_pad = leak_verdict(padded.inputs, padded.outputs, shuffles=100, seed=304)
    assert not v_pad.leak
    ok(7, f"unpadded offline monotone ({means[0]:.0f}..{means[-1]:.0f} cycles), "
          f"M={v_raw.m.value_bits:.2f} b leak; padded constant, no leak")


def test_08_interrupt_channel():
    spec = ChannelSpec("interrupt", "raw", iterations=600, seed=404)
    shared = run_interrupt_channel(HASWELL, spec)
    slice_cycles = shared.metadata["slice_cycles"]
    yes = np.array([o for i, o in zip(shared.inputs, shared.outputs) if i == "yes"])
    assert yes.std() >= 0.4 * slice_cycles
    spec = ChannelSpec("interrupt", "protected", iterations=600, seed=404)
    partitioned = run_interrupt_channel(HASWELL, spec)
    assert float(np.std(partitioned.outputs)) == 0.0
    v = leak_verdict(partitioned.inputs, partitioned.outputs, shuffles=100, seed=405)
    assert not v.leak
    ok(8, f"unpartitioned 'yes' sd = {yes.std() / slice_cycles:.2f} of slice; "
          f"partitioned sd = 0, no leak")


def test_09_llc_side_channel():
    raw = run_llc_side_channel(
        HASWELL, ChannelSpec("llc_side_channel", "raw", iterations=1, seed=48))
    prot = run_llc_side_channel(
        HASWELL, ChannelSpec("llc_side_channel", "protected", iterations=1, seed=48))
    assert raw.accuracy >= 0.90
    assert abs(prot.accuracy - 0.5) <= 0.05
    ok(9, f"raw key recovery {raw.accuracy:.0%}, protected {prot.accuracy:.0%}")


def test_10_switch_cost_table():
    protected = measure_switch_costs(HASWELL, "protected")
    full = measure_switch_costs(HASWELL, "full_flush")
    assert len(set(protected.values())) == 1  # workload independent
    for workload, cost in protected.items():
        assert cost < full[workload]
    ok(10, f"protected switch constant at {next(iter(protected.values()))} cycles, "
           f"full flush {min(full.values())}..{max(full.values())}")


def test_11_determinism(tmp_path):
    cfg = parse_config((Path(__file__).resolve().parents[1] / "src" / "tcsim" /
                        "configs" / "haswell-interrupt.cfg").read_text())
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_scenario(cfg, out)
        sha = hashlib.sha256()
        for f in sorted(out.iterdir()):
            sha.update(f.name.encode())
            sha.update(f.read_bytes())
        digests.append(sha.hexdigest())
    assert digests[0] == digests[1]
    ok(11, f"two runs byte-identical (sha256 {digests[0][:16]}...)")


def test_12_invariant_suite():
    # colour disjointness: brute-force pairwise frame check on a 4096-frame pool
    geometry = HASWELL.geometries["l2"]
    frames = build_frames(4096, geometry, HASWELL.page_bytes)
    partition = partition_pool(frames, {"a": {0, 1, 2, 3}, "b": {4, 5, 6, 7}})
    assert pools_cache_disjoint(partition.pool_frames("a"),
                                partition.pool_frames("b"),
                                geometry, HASWELL.page_bytes)

    # flush idempotence and history erasure
    params = LatencyParams(4, 12, 6, 100)
    c1 = CacheState(CacheGeometry(8 * KIB, 4, 64), params)
    c2 = CacheState(CacheGeometry(8 * KIB, 4, 64), params)
    for i in range(57):
        c1.access("x", i * 64, i * 64, "write")
    c2.access("y", 99 * 64, 99 * 64)
    c1.flush()
    c2.flush()
    assert c1.snapshot() == c2.snapshot()
    assert c1.flush() == params.flush_base_cycles  # idempotent re-flush

    # IRQ-mask subset invariant at every instant of a partitioned run
    system = build_scenario(HASWELL, "protected")
    sim = system.sim
    sim.set_irq_owner(1, sim.domains[SENDER].kernel_image)
    sim.set_irq_owner(2, sim.domains[RECEIVER].kernel_image)
    for _ in range(8):
        sim.domain_switch(RECEIVER)
        assert sim.check_irq_invariant()
        sim.domain_switch(SENDER)
        assert sim.check_irq_invariant()
    assert sim.irq_checks > 100 and sim.irq_violations == 0

    # frame conservation through clone/destroy round trips
    sim2 = build_scenario(HASWELL, "protected").sim
    def pool_multiset():
        return sorted(f.phys_addr for f in sim2.partition.pool_frames(SENDER))
    img = sim2.domains[SENDER].kernel_image
    image_frames = sorted(f.phys_addr for f in sim2.images[img].frames)
    with_clone = pool_multiset()
    sim2.destroy_kernel(img)
    released = pool_multiset()
    assert released == sorted(with_clone + image_frames)
    again = sim2.clone_kernel(sim2.initial_image.id, SENDER)
    assert len(sim2.images[again].frames) == len(image_frames)
    sim2.destroy_kernel(again)
    assert pool_multiset() == released
    ok(12, "colour disjointness, flush idempotence/erasure, IRQ mask subset, "
           "frame conservation")
