"""tcsim benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The benchmark writes the workload's input
from the seed, then runs it again and again, each time in a fresh
single-threaded child process and one child at a time, until the next run
would pass ``--seconds``. Every run's outputs are checked: structurally, for
equality with the first run's, and against the committed golden digests
when the seed has some. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (host time scaled to
a reference host speed by ``speed.py``, and memory; medians over the runs). With ``--trace 1`` untraced and traced runs
alternate, and the metrics are the per-layer ones from the traced runs plus
the tracing overhead and the untraced runs' unscaled wall time. Exits 2 without a result when tcsim cannot be run at
all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import speed
import workloads
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BUDGET_S = 170.0  # a whole invocation must end within 180 s

END_TO_END = [("run_s", "s", "lower"), ("setup_s", "s", "lower"),
              ("peak_rss_mib", "MiB", "lower")]
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
# per-layer metrics taken from the untraced runs of a --trace 1 invocation
UNTRACED = {"trace.overhead_s", "host.wall_s", "host.speed_scale"}
# per-layer metrics that count simulated or call events must repeat exactly
EXACT = {name for name, unit, _ in PER_LAYER
         if unit in ("count", "cycles") or name.endswith("hit_ratio")}
# child threads of numerical libraries off, so a run uses one core
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")}


class Fatal(Exception):
    """tcsim cannot be run at all; no result is printed."""


class Sample:
    """One child run and the verdict on its outputs."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.result: dict | None = None  # the child's timings
        self.setup_s = 0.0
        self.files: dict = {}
        self.error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_sample(workload: str, work: Path, inp: Path, index: int, traced: bool,
               timeout: float) -> Sample:
    """Run one child and check its outputs (not yet against other runs)."""
    sample = Sample(traced)
    out = Path(f"sample{index}") / "out"
    result_path = work / f"sample{index}" / "result.json"
    result_path.parent.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), workload, inp.as_posix(),
           out.as_posix(), str(result_path), str(ROOT / "src"), str(int(traced))]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout,
                              env={**os.environ, **SINGLE_THREAD})
    except subprocess.TimeoutExpired:
        sample.error = f"timed out after {timeout:.0f} s"
        return sample
    if proc.returncode == child.SETUP_FAILED:
        raise Fatal(proc.stderr.strip())
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["(no message)"]
        sample.error = f"exit {proc.returncode}: {lines[-1]}"
        return sample
    sample.result = json.loads(result_path.read_text())
    sample.setup_s = speed.scaled(sample.result["ready"] - t0, sample.result["setup_probe"])
    check_sample(sample, workload, work / inp, work / out)
    shutil.rmtree(work / out, ignore_errors=True)
    return sample


def check_sample(sample: Sample, workload: str, inp: Path, out: Path):
    """Structural check of a run's outputs; keeps their digests."""
    try:
        sample.files = workloads.check_outputs(workload, inp, out)
    except Exception as exc:  # any malformed output fails the run, not the benchmark
        sample.error = f"{type(exc).__name__}: {exc}"


def cross_check(samples: list[Sample], golden: dict, workload: str, seed: int,
                input_sha: str) -> str:
    """Fail runs whose outputs differ from the golden digests or from the
    first good run, and traced runs whose exact counters differ from the
    first traced run. Returns the golden status for the report."""
    good = [s for s in samples if s.ok]
    if not good:
        return "no good run"
    status = "none for this seed"
    try:
        if workloads.check_golden(golden, workload, seed, input_sha, good[0].files):
            status = "match"
    except workloads.OutputError as exc:
        for s in good:
            s.error = str(exc)
        return "MISMATCH"
    traced = [s for s in good if s.traced]
    for s in good[1:]:
        if s.files != good[0].files:
            s.error = "outputs differ from the first run's"
    for s in traced[1:]:
        differ = [n for n in EXACT if s.result["layers"][n] != traced[0].result["layers"][n]]
        if differ:
            s.error = f"exact counters differ between traced runs: {', '.join(sorted(differ))}"
    return status


def summarise(samples: list[Sample], trace: bool) -> dict:
    """The result object: correctness counts and the median metrics."""
    failed = sum(1 for s in samples if not s.ok)
    plain = [s.result for s in samples if s.result and not s.traced]
    if not plain:
        raise Fatal("no run completed")
    med = statistics.median
    if trace:
        layers = [s.result["layers"] for s in samples if s.result and s.traced]
        if not layers:
            raise Fatal("no traced run completed")
        metrics = {name: med([lay[name] for lay in layers])
                   for name, _, _ in PER_LAYER if name not in UNTRACED}
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - med([r["run_s"] for r in plain])
        metrics["host.wall_s"] = med([r["wall_s"] for r in plain])
        metrics["host.speed_scale"] = med([r["speed_scale"] for r in plain])
    else:
        metrics = {
            "run_s": med([r["run_s"] for r in plain]),
            "setup_s": med([s.setup_s for s in samples if s.result and not s.traced]),
            "peak_rss_mib": med([r["peak_rss_mib"] for r in plain]),
        }
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()}}


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, list[Sample], str, str]:
    """Run the workload until ``seconds`` are up; returns the result object,
    the runs, the first good run's combined digest and the golden status."""
    src = ROOT / "src"
    if not (src / "tcsim" / "__init__.py").is_file():
        raise Fatal(f"no tcsim sources under {src}")
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    inp = workloads.write_input(workload, seed, work / "input", src)
    input_sha = workloads.input_digest(inp)
    inp = inp.relative_to(work)
    start = time.monotonic()
    samples: list[Sample] = []
    longest = 0.0
    while True:
        round_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            timeout = max(1.0, BUDGET_S - (time.monotonic() - start))
            samples.append(run_sample(workload, work, inp, len(samples), traced, timeout))
        longest = max(longest, time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        if elapsed + longest > min(seconds, BUDGET_S) or not samples[-1].ok:
            break
    golden = cross_check(samples, workloads.load_golden(), workload, seed, input_sha)
    good = [s for s in samples if s.ok]
    digest = workloads.combine_digest(good[0].files) if good else "-"
    return summarise(samples, trace), samples, digest, golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, samples, digest, golden = measure(args.workload, args.seed,
                                                  args.seconds, bool(args.trace))
    except Fatal as exc:
        print(f"perfbench: cannot run tcsim: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} runs, {result['failed']} failed")
    for s in samples:
        if not s.ok:
            print(f"  FAILED run ({'traced' if s.traced else 'untraced'}): {s.error}")
    for name, m in result["metrics"].items():
        print(f"  {name:36} {m['value']:.6g} {m['unit']}")
    plain = [s.result for s in samples if s.result and not s.traced]
    if not args.trace:  # with --trace 1 the result carries them as host.*
        print(f"  {'unscaled run_s (wall)':36} {statistics.median(r['wall_s'] for r in plain):.6g} s"
              f" at speed scale {statistics.median(r['speed_scale'] for r in plain):.4g}")
    print(f"  {'failed_frac':36} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(f"  {'digest':36} {digest} (golden: {golden})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
