"""Paired benchmark runs of two checkouts, written up as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workloads W [W ...]
        --seeds S [S ...] --out BENCH_N.json [--claim WORKLOAD:METRIC]
        [--held-out SEED] [--purpose TEXT]

Both directories are git checkouts; the record names the commit of each
and its ``src_lines``, the total that ``wc -l src/tcsim/*.py`` prints.
Pair i runs ``perfbench/run.py --workload W --seed S_i --trace 0`` once in
each checkout, from that checkout's root, one run at a time, for
perfbench's own default run length. The parent runs first in odd pairs
(counting from 1) and the change first in even ones. Each side's end-to-end
metrics are summarised by median and quartiles, with the bound and better
direction that the change's BENCHMARK.json gives them. Each run's unscaled
wall seconds and speed scale, from ``run.py``'s summary line, are recorded
too, summarised by their medians and, for wall seconds, by the number of
pairs the change won, ungated. A claimed gain is met when the change is
better in at least nine tenths of the pairs (ties count for neither side),
the medians differ, in the better direction, by more than the distance
between the parent's quartiles, the change fails no more operations than
the parent, and, with ``--held-out``, the change is also better in one more
pair on that seed. For a ``run_s`` claim the same rule on unscaled wall
seconds is recorded beside it as ``claim.unscaled``, ungated; any other
claim records null there, as wall seconds time only the run. The output
file is rewritten after every pair, so an interrupted run keeps what it
measured. Nothing under either checkout is written except by perfbench
itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
GOLDEN = re.compile(r"\(golden: (.*)\)\s*$")
UNSCALED = re.compile(r"unscaled run_s \(wall\)\s+(\S+) s at speed scale (\S+)")


def revision(checkout: Path) -> str:
    """The short commit hash that ``checkout`` has checked out."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: not a git checkout: {proc.stderr.strip()}")
    return proc.stdout.strip()


def src_lines(checkout: Path) -> int:
    """The newlines in ``checkout``'s ``src/tcsim/*.py``, which ``wc -l`` totals."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "tcsim").glob("*.py"))


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench invocation; its end-to-end metrics and verdict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return parse_run(proc.stdout)


def parse_run(stdout: str) -> dict:
    """A run's end-to-end metrics and verdict from ``run.py``'s stdout, plus
    the unscaled wall seconds and speed scale of its summary line (medians
    over the run's samples; None where the line is missing)."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    golden = next((m.group(1) for m in map(GOLDEN.search, lines) if m), "unknown")
    unscaled = next((m for m in map(UNSCALED.search, lines) if m), None)
    out = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
    out.update(attempted=result["attempted"], failed=result["failed"],
               correct=result["correct"], golden=golden,
               wall_s=float(unscaled.group(1)) if unscaled else None,
               speed_scale=float(unscaled.group(2)) if unscaled else None)
    return out


def run_pair(dirs: dict, workload: str, seed: int, parent_first: bool) -> dict:
    order = list(SIDES) if parent_first else list(reversed(SIDES))
    pair = {"seed": seed, "order": order}
    for side in order:
        pair[side] = run_once(dirs[side], workload, seed)
        print(f"  {workload} seed {seed} {side}: run_s {pair[side].get('run_s')}",
              file=sys.stderr, flush=True)
    return pair


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:  # the first pair, summarised before the rest exist
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` is strictly better than ``b``."""
    return a < b if direction == "lower" else a > b


def summarise(pairs: list[dict], metrics: dict) -> dict:
    summary = {}
    for name, spec in metrics.items():
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        rel = stats["change"]["median"] / stats["parent"]["median"] - 1
        worse = rel if spec["better"] == "lower" else -rel
        summary[name] = {
            **stats,
            "change_vs_parent": round(rel, 4),
            "bound": spec["bound"],
            "within_bound": worse <= spec["bound"],
            "change_better_pairs": sum(better(c, p, spec["better"])
                                       for c, p in zip(values["change"], values["parent"])),
        }
    return summary


def summarise_unscaled(pairs: list[dict]) -> dict:
    """Each side's median unscaled wall seconds and speed scale, and the
    number of pairs in which the change took fewer wall seconds (ties and
    pairs missing a side's value count for neither). They carry no bound:
    they show whether a gain in scaled seconds is there in host seconds too,
    since a change can also move the speed scale."""
    summary = {}
    for name in ("wall_s", "speed_scale"):
        medians = {}
        for side in SIDES:
            values = [p[side][name] for p in pairs if p[side].get(name) is not None]
            medians[side] = round(statistics.median(values), 4) if values else None
        rel = (round(medians["change"] / medians["parent"] - 1, 4)
               if None not in medians.values() else None)
        summary[name] = {**medians, "change_vs_parent": rel}
    walls = [(p["change"].get("wall_s"), p["parent"].get("wall_s")) for p in pairs]
    summary["wall_s"]["change_better_pairs"] = sum(
        better(c, w, "lower") for c, w in walls if None not in (c, w))
    return summary


def pair_rule(pairs: list[dict], metric: str, direction: str) -> tuple[dict, bool]:
    """Pairs won, median difference and the parent's interquartile range of
    ``metric``, and whether nine tenths of the pairs were won and the
    medians differ, in the better direction, by more than that range."""
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    wins = sum(better(c, p, direction) for c, p in zip(change, parent))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    diff = statistics.median(change) - statistics.median(parent)
    gain = -diff if direction == "lower" else diff
    return ({"change_better_pairs": wins, "pairs": len(pairs),
             "median_difference": round(diff, 4), "parent_iqr": round(q3 - q1, 4)},
            wins >= math.ceil(0.9 * len(pairs)) and gain > q3 - q1)


def claim_verdict(pairs: list[dict], metric: str, direction: str,
                  held: dict | None = None) -> dict:
    """The claim rule: nine tenths of the pairs won, a median difference
    beyond the parent's interquartile range, no more failed operations than
    the parent, and the held-out pair ``held``, if any, won too."""
    verdict, met = pair_rule(pairs, metric, direction)
    runs = pairs + ([held] if held else [])
    failed = verdict["failed"] = {side: sum(p[side]["failed"] for p in runs)
                                  for side in SIDES}
    met = met and failed["change"] <= failed["parent"]
    if held is not None:
        held["change_better"] = better(held["change"][metric], held["parent"][metric],
                                       direction)
        verdict["held_out_seed"] = held
        met = met and held["change_better"]
    return {**verdict, "met": met}


def unscaled_verdict(pairs: list[dict], held: dict | None = None) -> dict | None:
    """The claim rule applied to unscaled wall seconds, over the pairs in
    which both sides report them; None below two such pairs. It carries no
    gate: it shows whether a claimed gain holds in host seconds, since a
    change can also move the speed scale."""
    def has_wall(pair):
        return all(pair[side].get("wall_s") is not None for side in SIDES)

    kept = [p for p in pairs if has_wall(p)]
    if len(kept) < 2:
        return None
    verdict, met = pair_rule(kept, "wall_s", "lower")
    if held is not None and has_wall(held):
        verdict["held_out_change_better"] = better(
            held["change"]["wall_s"], held["parent"]["wall_s"], "lower")
        met = met and verdict["held_out_change_better"]
    return {**verdict, "met": met}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--held-out", type=int, help="one more seed for the claim")
    parser.add_argument("--purpose", default="")
    args = parser.parse_args(argv)

    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in args.workloads or metric not in metrics:
            parser.error("--claim must name a benchmarked workload and an end-to-end metric")
        claim = (workload, metric)
    elif args.held_out is not None:
        parser.error("--held-out needs --claim")

    record = {
        "purpose": args.purpose,
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "parent": revision(dirs["parent"]),
        "change": revision(dirs["change"]),
        "src_lines": {side: src_lines(dirs[side]) for side in SIDES},
        "sides": "parent: the parent commit's files; change: this commit's files; "
                 "each in its own checkout directory, run from its root",
        "pairing": "pair i uses the i-th seed on both sides; odd i runs the parent first, "
                   "even i the change first",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs; run_s and setup_s are "
                "perfbench's speed-scaled seconds; wall_s and speed_scale are each "
                "run's unscaled wall-second and speed-scale medians, summarised "
                "under 'unscaled' without a bound",
        "seeds": args.seeds,
        "workloads": {},
    }

    def save():
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for workload in args.workloads:
        pairs = []
        entry = record["workloads"][workload] = {"pairs": pairs}
        for i, seed in enumerate(args.seeds, start=1):
            pairs.append(run_pair(dirs, workload, seed, i % 2 == 1))
            runs = [p[side] for p in pairs for side in SIDES]
            entry.update(
                summary=summarise(pairs, metrics),
                unscaled=summarise_unscaled(pairs),
                failed=sum(r["failed"] for r in runs),
                attempted=sum(r["attempted"] for r in runs),
                all_golden_match=all(r["golden"] == "match" for r in runs))
            entry["pairs"] = entry.pop("pairs")  # keep the pairs last
            save()
    if claim:
        workload, metric = claim
        held = None
        if args.held_out is not None:
            held = run_pair(dirs, workload, args.held_out, True)
        pairs = record["workloads"][workload]["pairs"]
        verdict = claim_verdict(pairs, metric, metrics[metric]["better"], held)
        unscaled = unscaled_verdict(pairs, held) if metric == "run_s" else None
        record["claim"] = {"workload": workload, "metric": metric, **verdict,
                           "unscaled": unscaled}
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
