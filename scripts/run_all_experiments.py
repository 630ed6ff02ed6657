#!/usr/bin/env python3
"""Run every built-in experiment config and print the headline tables.

Usage: python3 scripts/run_all_experiments.py [outdir]

Writes one subdirectory per config under ``outdir`` (default
./experiments-out) and prints leakage verdicts, the switch-cost table and the
colouring-overhead table.
"""

import sys
import time
from pathlib import Path

from tcsim.cli import builtin_config_names, print_cells, resolve_config
from tcsim.harness import run_scenario


def main() -> int:
    outroot = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("experiments-out")
    names = builtin_config_names()
    print(f"running {len(names)} built-in configs -> {outroot}/")
    for name in names:
        t0 = time.monotonic()
        cfg = resolve_config(name)
        report = run_scenario(cfg, outroot / name)
        print(f"\n== {name} ({time.monotonic() - t0:.1f}s)")
        print_cells(report)
        if "switch_cost_table" in report:
            print("  switch-away cost (cycles):")
            for scenario, row in report["switch_cost_table"].items():
                cells = " ".join(f"{w}={c}" for w, c in row.items())
                print(f"    {scenario:10} {cells}")
        for entry in report.get("colour_overhead", []):
            print(f"  colour overhead: share={entry['share']:4} "
                  f"ws={entry['working_set_bytes'] // 1024} KiB "
                  f"slowdown={100 * entry['slowdown']:.1f}%")
    print(f"\nreports and CSVs under {outroot}/<config>/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
