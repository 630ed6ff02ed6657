"""Record the golden output digests that ``run.py`` checks every run against.

    python3 perfbench/record_golden.py

Runs every workload once per seed in ``workloads.GOLDEN_SEEDS``, untraced,
checks its outputs structurally and rewrites ``golden.json`` with the
sha256 digest of its input and of every output file. Record again only in a
change that is meant to alter tcsim's outputs, and say so in that change: a
faster tcsim must reproduce these digests as they are.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record(workload: str, seed: int) -> dict:
    work = run.WORK / f"golden-{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    inp = workloads.write_input(workload, seed, work / "input", run.ROOT / "src")
    input_sha = workloads.input_digest(inp)
    sample = run.run_sample(workload, work, inp.relative_to(work), 0, False, run.BUDGET_S)
    shutil.rmtree(work, ignore_errors=True)
    if not sample.ok:
        raise SystemExit(f"{workload} seed {seed}: {sample.error}")
    return {"input": input_sha, "files": sample.files}


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        for seed in workloads.GOLDEN_SEEDS:
            golden.setdefault(workload, {})[str(seed)] = record(workload, seed)
            print(f"{workload} seed {seed}: "
                  f"{workloads.combine_digest(golden[workload][str(seed)]['files'])}")
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
