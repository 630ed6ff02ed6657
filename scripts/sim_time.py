"""In-process simulator timings of two checkouts, alternated.

    python3 scripts/sim_time.py PARENT_DIR CHANGE_DIR --configs C [C ...] --rounds N

Each round times every named built-in config once in each checkout, each
run in a fresh Python process that imports tcsim from that checkout's
``src``. The parent runs first in odd rounds (counting from 1) and the
change first in even ones. A run executes ``harness.run_scenario`` with the
leak verdicts stubbed out and sums the ``time.perf_counter`` seconds spent
in ``run_channel``, ``run_llc_side_channel``, ``measure_switch_costs`` and
``measure_colour_overhead``: the simulator alone, not the imports, the
statistics or the CSV writing. A config that perfbench runs
(``SIM_WORKLOADS`` in the change's ``perfbench/workloads.py``) runs at
perfbench's iterations, any other at its own. Per config, the script prints
each side's median and quartiles, the change's median relative to the
parent's and the rounds in which the change was faster, then every summary
as one JSON line. Bytecode is not written, so neither checkout changes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, quartiles, revision  # noqa: E402

CHILD = r"""
import json, re, sys, tempfile, time
src, name, iterations = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, src)
from tcsim import harness
from tcsim.config import parse_config

text = open(f"{src}/tcsim/configs/{name}.cfg").read()
if iterations:
    text = re.sub(r"(?m)^(\s*iterations\s*=)[^#\n]*", rf"\g<1> {iterations}", text)
spent = 0.0

def timed(fn):
    def wrapper(*args, **kwargs):
        global spent
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent += time.perf_counter() - t0
    return wrapper

harness.run_channel = timed(harness.run_channel)
harness.run_llc_side_channel = timed(harness.run_llc_side_channel)
harness.measure_switch_costs = timed(harness.measure_switch_costs)
harness.measure_colour_overhead = timed(harness.measure_colour_overhead)
harness._measure = lambda *args, **kwargs: {}
with tempfile.TemporaryDirectory() as out:
    harness.run_scenario(parse_config(text, name), out)
print(json.dumps({"sim_s": spent}))
"""


def perfbench_lengths(checkout: Path) -> dict:
    """Built-in config name -> iterations, for the configs perfbench runs."""
    path = checkout / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.SIM_WORKLOADS.values())


def time_once(checkout: Path, config: str, iterations: int | None) -> float:
    """Simulator seconds of one run of ``config`` in ``checkout``, at
    ``iterations`` (None: the config's own)."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-c", CHILD, str(checkout / "src"), config, str(iterations or 0)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {config} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["sim_s"]


def summarise(times: dict) -> dict:
    """Each side's median and quartiles of ``times`` (per side, one value
    per round, paired by round), the change's median relative to the
    parent's, and the rounds in which the change took less time (ties
    count for neither side)."""
    stats = {side: quartiles(times[side]) for side in SIDES}
    return {**stats,
            "change_vs_parent": round(stats["change"]["median"]
                                      / stats["parent"]["median"] - 1, 4),
            "change_faster_rounds": sum(c < p for p, c in zip(times["parent"],
                                                               times["change"])),
            "rounds": len(times["parent"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--configs", nargs="+", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    lengths = perfbench_lengths(dirs["change"])
    record = {"parent": revision(dirs["parent"]), "change": revision(dirs["change"]),
              "configs": {}}
    for config in args.configs:
        iterations = lengths.get(config)
        times = {side: [] for side in SIDES}
        for i in range(1, args.rounds + 1):
            for side in SIDES if i % 2 else reversed(SIDES):
                times[side].append(time_once(dirs[side], config, iterations))
        summary = record["configs"][config] = {
            "iterations": iterations, **summarise(times), "times": times}
        p, c = summary["parent"], summary["change"]
        print(f"{config} ({iterations or 'its own'} iterations): parent {p['median']} s "
              f"[{p['q1']}, {p['q3']}], change {c['median']} s [{c['q1']}, {c['q3']}], "
              f"{summary['change_vs_parent']:+.2%}, change faster in "
              f"{summary['change_faster_rounds']} of {args.rounds} rounds", flush=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
