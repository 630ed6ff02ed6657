"""Measure a commit's baseline and check that the benchmark is steady.

    python3 perfbench/baseline.py

For each workload, runs ``run.py`` untraced once per seed in SEEDS and
traced once at the default seed, exactly as in BENCHMARK.json (same command
and ``run_seconds``), one run at a time. Prints, per end-to-end metric, the
median, the quartiles and the spread (interquartile range over median)
next to the metric's bound, then the per-layer baseline table, and writes
every value to ``baseline.json`` in this directory.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = range(1, 11)

# (label, workload, per-layer metric) rows of the per-layer baseline table
TABLE = [("CacheState.access on L1-D", "intra-core", "microarch.access.l1d.ns_per_call"),
         ("MemoryHierarchy.access", "kernel-channel", "microarch.hierarchy.ns_per_call"),
         *[(f"flush {r}", "intra-core", f"microarch.flush.{r}.us_per_call")
           for r in ("l1d", "l1i", "l2", "llc", "tlb", "btb", "bhb")],
         *[(f"domain_switch {s} (self)", "intra-core", f"kernel.switch.{s}.us_per_call")
           for s in ("raw", "full_flush", "protected")],
         *[(f"estimate_mi ({w})", w, "stats.estimate_mi.ms_per_call")
           for w in workloads.WORKLOADS],
         *[(f"leak_verdict ({w})", w, "stats.verdict.s_per_call")
           for w in workloads.WORKLOADS],
         *[(f"channel iteration ({w})", w, "channels.us_per_iteration")
           for w in workloads.SIM_WORKLOADS]]


def invoke(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def machine() -> dict:
    import numpy
    model = next((line.split(":", 1)[1].strip() for line in
                  Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "system": platform.platform()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"machine": machine(), "run_seconds": bench["run_seconds"],
           "seeds": list(SEEDS), "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [invoke(bench, workload, seed, 0) for seed in SEEDS]
        traced = invoke(bench, workload, workloads.DEFAULT_SEED, 1)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {name: spread([r["metrics"][name]["value"] for r in runs])
                                for name in bounds},
                 "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
                 "per_layer_correct": traced["correct"]}
        out["workloads"][workload] = entry
        print(f"{workload}: {entry['failed']}/{entry['attempted']} runs failed over "
              f"{len(runs)} seeds; traced run correct={traced['correct']}")
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (spread above bound/3)"
            print(f"  {name:14} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}"
                  f"  spread {s['spread']:.3f}  bound {bounds[name]}{flag}")
        OUT.write_text(json.dumps(out, indent=1) + "\n")
    units = {name: unit for name, unit, _ in PER_LAYER}
    print("\nper-layer baseline (traced runs, host time, default seed)")
    for label, workload, metric in TABLE:
        layers = out["workloads"].get(workload, {}).get("per_layer")
        if layers:
            print(f"  {label:36} {layers[metric]:10.4g} {units[metric]:5}"
                  f" [{workload}: {metric}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
