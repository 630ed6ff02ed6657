#!/usr/bin/env python3
"""Calibration study of the leakage estimator.

Two experiments, both deterministic given the seeds below:

1. accuracy: MI estimates on Gaussian-mixture datasets against the analytic
   value of the generating model, across symbol counts and separations
   (quantifies the smoothing bias of the fixed-bandwidth KDE);
2. false-positive rate: leak verdicts on dependence-free datasets, which the
   shuffle-derived bound should reject about 95% of the time.

Both tables are printed and recorded, with every value at full precision, in
CALIBRATION.json at the repository root, so that a change to the estimator
can be compared against the committed record.

Usage: python3 scripts/estimator_calibration.py [n_datasets]
"""

import json
import sys
from pathlib import Path

import numpy as np

from tcsim.stats import estimate_mi, leak_verdict


def analytic_mixture_mi(means, sigma=1.0, points=2**18, pad=14.0) -> float:
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


def accuracy_study(n=10_000, repeats=5):
    print("estimate vs analytic MI of the generating mixture "
          f"(n={n}, {repeats} seeds):")
    print(f"{'symbols':>8} {'sep':>5} {'true':>8} {'mean est':>9} {'bias':>8} {'sd':>7}")
    rows = []
    for k in (2, 3, 4):
        for d in (0.5, 1.0, 2.0, 4.0):
            truth = analytic_mixture_mi([i * d for i in range(k)])
            ests = []
            for r in range(repeats):
                rng = np.random.default_rng(7000 + 100 * k + int(10 * d) + r)
                inputs = rng.integers(0, k, n)
                outputs = inputs * d + rng.standard_normal(n)
                ests.append(estimate_mi(inputs, outputs).value_bits)
            ests = np.array(ests)
            mean, sd = float(ests.mean()), float(ests.std())
            print(f"{k:>8} {d:>5} {truth:8.4f} {mean:9.4f} "
                  f"{mean - truth:+8.4f} {sd:7.4f}")
            rows.append({"symbols": k, "separation": d, "true_bits": truth,
                         "mean_estimate_bits": mean, "bias_bits": mean - truth,
                         "sd_bits": sd})
    return {"n": n, "repeats": repeats, "rows": rows}


def false_positive_study(n_datasets=100, n=1500, symbols=4, master=23):
    leak_free = 0
    for i in range(n_datasets):
        rng = np.random.default_rng(master * 1000 + i)
        inputs = rng.integers(0, symbols, n)
        outputs = rng.standard_normal(n)
        v = leak_verdict(inputs, outputs, shuffles=100, seed=master * 1000 + i + 7)
        leak_free += (not v.leak)
    print(f"\nzero-dependence verdicts: {leak_free}/{n_datasets} judged leak-free "
          f"(target: about 95%)")
    return {"datasets": n_datasets, "n": n, "symbols": symbols,
            "judged_leak_free": leak_free,
            "false_positives": n_datasets - leak_free}


def main() -> int:
    n_datasets = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    record = {"accuracy": accuracy_study(),
              "false_positive": false_positive_study(n_datasets)}
    out = Path(__file__).resolve().parent.parent / "CALIBRATION.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nrecorded in {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
