"""The benchmark's workloads: inputs made from a seed, and output checks.

Three workloads run a built-in scenario config whose ``seed`` and
``iterations`` keys are replaced; the fourth (``leak-stats``) runs
``tcsim analyze`` over sample CSVs generated here. tcsim only ever sees the
generated files.

Checking a run's outputs has two parts. The structural check holds for any
seed: every expected file exists and every leakage cell is well formed. The
digest check compares sha256 digests of every output file with the golden
digests committed in ``golden.json``, where one exists for the workload and
seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

# workload -> (built-in config, iterations). Lengths are chosen so that the
# simulator, not the statistics, does most of the work in each run.
SIM_WORKLOADS = {
    "kernel-channel": ("sabre-kernel-channel", 80),
    "intra-core": ("haswell-intra-core", 400),
    "flush-latency": ("haswell-flush-latency", 1000),
}
WORKLOADS = (*SIM_WORKLOADS, "leak-stats")
DEFAULT_SEED = 1
# seeds with committed golden digests (recorded by record_golden.py)
GOLDEN_SEEDS = range(0, 11)

# leak-stats datasets: (symbols, samples, leaking). The shapes are fixed so
# that the cost of a run does not depend on the seed; the seed moves the
# base latency, the symbol-to-level mapping, the input order and the jitter.
LEAK_DATASETS = (
    (2, 1000, True),
    (2, 2000, False),
    (4, 4000, True),
    (8, 8000, False),
    (16, 20000, True),
)
LEVEL_STEP = 40.0   # cycles between adjacent timing levels
LEVELS_PER_SYMBOL = 3
JITTER_SIGMA = 6.0  # cycles of Gaussian measurement jitter

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class OutputError(Exception):
    """A run's outputs are missing, malformed, or differ from the golden."""


def _set_key(text: str, key: str, value: int) -> str:
    pattern = re.compile(rf"(?m)^(\s*{key}\s*=)[^#\n]*")
    new, count = pattern.subn(rf"\g<1> {value}", text)
    if count != 1:
        raise ValueError(f"config has {count} {key!r} lines, expected 1")
    return new


def write_input(workload: str, seed: int, dest: Path, src: Path,
                iterations: int | None = None) -> Path:
    """Write the workload's input for ``seed`` under ``dest`` and return the
    path tcsim is given: a config file, or the directory of sample CSVs.
    ``iterations`` overrides the benchmark length (for quick tests only)."""
    dest.mkdir(parents=True, exist_ok=True)
    if workload in SIM_WORKLOADS:
        name, length = SIM_WORKLOADS[workload]
        text = (src / "tcsim" / "configs" / f"{name}.cfg").read_text()
        text = _set_key(text, "seed", seed)
        text = _set_key(text, "iterations", iterations or length)
        path = dest / f"{workload}.cfg"
        path.write_text(text)
        return path
    if workload != "leak-stats":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    for i, (symbols, n, leaking) in enumerate(LEAK_DATASETS):
        if iterations:
            n = iterations
        rows = _leak_samples(rng, symbols, n, leaking)
        name = f"d{i}-{symbols}sym-{'leak' if leaking else 'null'}.csv"
        with open(dest / name, "w") as fh:
            fh.write("iteration,input,output\n")
            fh.writelines(f"{j},{s},{v!r}\n" for j, (s, v) in enumerate(rows))
    return dest


def _leak_samples(rng: random.Random, symbols: int, n: int, leaking: bool):
    """Channel-shaped samples: each output sits on one of a few discrete
    timing levels plus jitter. In a leaking set the levels depend on the
    input symbol; in a null set they depend on an independent draw."""
    base = 1000.0 + rng.randrange(500)
    position = list(range(symbols))
    rng.shuffle(position)
    inputs = [j % symbols for j in range(n)]
    rng.shuffle(inputs)
    rows = []
    for s in inputs:
        source = s if leaking else rng.randrange(symbols)
        level = position[source] + rng.randrange(LEVELS_PER_SYMBOL)
        rows.append((s, base + LEVEL_STEP * level + rng.gauss(0.0, JITTER_SIGMA)))
    return rows


def input_digest(path: Path) -> str:
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    return combine_digest({f.name: _sha(f) for f in files})


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def combine_digest(files: dict) -> str:
    """One digest over (name, sha256) pairs."""
    text = "".join(f"{name}:{digest}\n" for name, digest in sorted(files.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def output_digests(outdir: Path) -> dict:
    """sha256 of every output file, by path relative to ``outdir``."""
    return {p.relative_to(outdir).as_posix(): _sha(p)
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def check_outputs(workload: str, inp: Path, outdir: Path) -> dict:
    """Structural check of one run's outputs; returns their digests.
    Raises OutputError on the first problem found."""
    if workload == "leak-stats":
        _check_leak_stats(inp, outdir)
    else:
        _check_report(inp, outdir)
    return output_digests(outdir)


def _config_list(text: str, key: str) -> list[str]:
    match = re.search(rf"(?m)^\s*{key}\s*=([^#\n]*)", text)
    return [p.strip() for p in match.group(1).split(",") if p.strip()] if match else []


def _check_report(cfg_path: Path, outdir: Path):
    text = cfg_path.read_text()
    channels = _config_list(text, "run")
    scenarios = _config_list(text, "scenarios")
    iterations = int(_config_list(text, "iterations")[0])
    report = _load_json(outdir / "report.json")
    cells = report.get("channels", {})
    if report["config"]["iterations"] != iterations:
        raise OutputError("report echoes the wrong iteration count")
    for channel in channels:
        for scenario in scenarios:
            cell = cells.get(channel, {}).get(scenario)
            if cell is None:
                raise OutputError(f"report has no cell {channel}/{scenario}")
            stem = f"{channel}_{scenario}"
            _check_cell(cell, f"{stem}", iterations)
            _check_rows(outdir / f"{stem}.csv", iterations)
            _require(outdir / f"{stem}_matrix.csv")
            if channel == "flush_latency":
                _check_cell(cell["online"], f"{stem}/online", iterations)
                _check_rows(outdir / f"{stem}_online.csv", iterations)
    for scenario in scenarios:
        if scenario not in report.get("switch_cost_table", {}):
            raise OutputError(f"switch-cost table lacks {scenario}")


def _check_leak_stats(inp: Path, outdir: Path):
    datasets = sorted(inp.glob("*.csv"))
    if not datasets:
        raise OutputError("no leak-stats datasets")
    for csv in datasets:
        record = _load_json(outdir / f"{csv.stem}.json")
        _check_cell(record, csv.stem, _data_rows(csv))
        if csv.stem.endswith("-leak") and not record["leak"]:
            raise OutputError(f"{csv.stem}: a planted leak was not detected")


def _check_cell(cell: dict, where: str, samples: int):
    m, m0 = cell.get("m_bits"), cell.get("m0_bits")
    if not (isinstance(m, (int, float)) and isinstance(m0, (int, float))
            and math.isfinite(m) and math.isfinite(m0) and m >= 0):
        raise OutputError(f"{where}: m_bits={m!r} m0_bits={m0!r} not finite, non-negative")
    if cell.get("leak") is not (m > m0):
        raise OutputError(f"{where}: leak={cell.get('leak')!r} but m_bits > m0_bits is {m > m0}")
    if cell.get("n") != samples:
        raise OutputError(f"{where}: n={cell.get('n')!r}, expected {samples}")


def _data_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _check_rows(path: Path, rows: int):
    _require(path)
    count = _data_rows(path)
    if count != rows:
        raise OutputError(f"{path.name}: {count} rows, expected {rows}")


def _require(path: Path):
    if not path.is_file():
        raise OutputError(f"missing output {path.name}")


def _load_json(path: Path) -> dict:
    _require(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise OutputError(f"{path.name}: not JSON ({exc})") from None


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def check_golden(golden: dict, workload: str, seed: int, input_sha: str,
                 files: dict) -> bool:
    """Compare digests with the golden entry for (workload, seed). Returns
    False when there is no golden entry; raises OutputError on a mismatch."""
    entry = golden.get(workload, {}).get(str(seed))
    if entry is None:
        return False
    if entry["input"] != input_sha:
        raise OutputError("generated input differs from the one the golden digests "
                          "were recorded for; re-record golden.json")
    differ = sorted(set(entry["files"]) ^ set(files)
                    | {n for n in files if entry["files"].get(n) != files[n]})
    if differ:
        raise OutputError(f"outputs differ from golden digests: {', '.join(differ[:5])}"
                          + (f" and {len(differ) - 5} more" if len(differ) > 5 else ""))
    return True
