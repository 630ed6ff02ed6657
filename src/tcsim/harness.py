"""Scenario runner: wires profiles, scenarios, channels and statistics into
reproducible experiments and writes the report plus per-channel CSVs.

Cells run sequentially in a fixed order and every random stream is derived
from the master seed, so identical config text yields byte-identical output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path

import tcsim
from tcsim.channels import (CHANNELS, ChannelSpec, SampleSet, group_window,
                            probe, probe_window, run_channel,
                            run_llc_side_channel)
from tcsim.config import ConfigError, RunConfig
from tcsim.kernel import Simulator
from tcsim.microarch import colour_count
from tcsim.profiles import PlatformProfile, get_profile
from tcsim.scenarios import RECEIVER, SENDER, build_scenario
from tcsim.stats import (DegenerateAlphabet, GridUnbuildable, TooFewSamples,
                         channel_matrix, leak_verdict, report_record)

SWITCH_WORKLOADS = ("idle", "l1d", "l1i", "l2", "llc")
# rounds of each switch-cost workload; the last is reported, as steady state
SWITCH_ROUNDS = 6
# passes of the colour-overhead stream; the first, cold, pass is not counted
STREAM_PASSES = 4


def cell_seed(master: int, channel: str, scenario: str) -> int:
    digest = hashlib.sha256(f"{master}:{channel}:{scenario}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def noise_sigma_for(profile: PlatformProfile, channel: str, pct: float) -> float:
    if pct <= 0:
        return 0.0
    resource = CHANNELS[channel].noise_resource or profile.partitioned_cache
    return pct / 100.0 * profile.latency.params(resource).hit_cycles


def _build_kwargs(cfg: RunConfig) -> dict:
    return dict(frames=cfg.frames, colour_split=cfg.colour_split,
                timeslice_cycles=cfg.timeslice_cycles, pad_cycles=cfg.pad_cycles,
                irq_margin_pct=cfg.irq_margin_pct, irq_owners=cfg.irq_owners)


@contextmanager
def _staged(outdir: Path):
    """Yield a fresh staging directory next to ``outdir``. When the body
    completes, move what it wrote into ``outdir`` (``_move_in``). When it
    raises, remove the staging directory and every directory made for it,
    so a failed run leaves nothing behind."""
    if outdir.exists() and not outdir.is_dir():
        raise ConfigError(f"cannot use {outdir} as output directory: not a directory")
    made = [d for d in (outdir, *outdir.parents) if not d.exists()]  # deepest first
    try:
        outdir.parent.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=f".{outdir.name}.partial-", dir=outdir.parent))
    except OSError as exc:
        raise ConfigError(f"cannot use {outdir} as output directory: {exc.strerror}") from None
    try:
        yield stage
        _move_in(stage, outdir)
        made = []
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        if made:  # the run failed, and outdir did not exist before it
            shutil.rmtree(outdir, ignore_errors=True)
            for d in made[1:]:
                with suppress(OSError):
                    d.rmdir()


def _move_in(stage: Path, outdir: Path):
    """Move every file of ``stage`` into ``outdir`` (made if missing), all
    or nothing: a file of the same name is set aside first, and when a move
    fails the files moved in are removed and the set-aside ones put back,
    so ``outdir`` is left as it was."""
    try:
        outdir.mkdir(exist_ok=True)
        aside = Path(tempfile.mkdtemp(prefix=f".{outdir.name}.replaced-", dir=outdir.parent))
    except OSError as exc:
        raise ConfigError(f"cannot write to {outdir}: {exc.strerror}") from None
    moved = []
    try:
        for path in sorted(stage.iterdir()):
            target = outdir / path.name
            if os.path.lexists(target):
                os.replace(target, aside / path.name)
            os.replace(path, target)
            moved.append(target)
    except OSError as exc:
        for target in moved:
            target.unlink()
        for path in aside.iterdir():
            os.replace(path, outdir / path.name)
        aside.rmdir()
        raise ConfigError(f"cannot write to {outdir}: {exc.strerror}") from None
    shutil.rmtree(aside)


def run_scenario(cfg: RunConfig, outdir) -> dict:
    """Run every requested channel under every requested scenario, measure
    leakage, and write report.json plus per-cell CSVs under ``outdir``.
    Outputs are staged and reach ``outdir`` only when the whole run
    completes (see ``_staged``)."""
    outdir = Path(outdir)
    with _staged(outdir) as stage:
        return _run(cfg, stage)


def _run(cfg: RunConfig, outdir: Path) -> dict:
    profile = get_profile(cfg.profile)
    report = {
        "tool": "tcsim",
        "version": tcsim.__version__,
        "config_sha256": hashlib.sha256(cfg.raw_text.encode()).hexdigest(),
        "seed": cfg.seed,
        "profile": profile_summary(profile),
        "config": cfg.echo(),
        "channels": {},
    }
    kwargs = _build_kwargs(cfg)
    for channel in cfg.channels:
        report["channels"][channel] = {}
        for scenario in cfg.scenarios:
            if channel == "llc_side" and scenario == "full_flush":
                continue  # concurrent cross-core access; flushing is meaningless
            cell = _run_cell(profile, cfg, channel, scenario, outdir, kwargs)
            report["channels"][channel][scenario] = cell
    if cfg.switch_cost_table:
        report["switch_cost_table"] = {
            scenario: measure_switch_costs(profile, scenario, **kwargs)
            for scenario in cfg.scenarios}
        report["flush_cost_table"] = flush_cost_table(profile)
    if cfg.colour_overhead:
        ws = cfg.overhead_working_set_kib * 1024
        report["colour_overhead"] = [
            {"share": share, "working_set_bytes": ws,
             "slowdown": measure_colour_overhead(profile, ws, share)}
            for share in cfg.overhead_shares]
    report_path = outdir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _run_cell(profile, cfg: RunConfig, channel: str, scenario: str,
              outdir: Path, build_kwargs: dict) -> dict:
    seed = cell_seed(cfg.seed, channel, scenario)
    if channel == "llc_side":
        cells, record = run_llc_side_channel(profile, scenario, cfg.llc_key_seed,
                                             cfg.llc_key_bits, **build_kwargs)
        trace_csv = f"llc_side_{scenario}_trace.csv"
        with open(outdir / trace_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["set", "quantum", "latency"])
            w.writerows(cells)
        return {**record, "trace_csv": trace_csv}
    spec = ChannelSpec(channel, scenario, iterations=cfg.iterations, seed=seed,
                       input_alphabet=CHANNELS[channel].alphabet(profile, cfg.symbols),
                       noise_sigma=noise_sigma_for(profile, channel, cfg.noise_sigma_pct),
                       warmup=cfg.warmup)
    samples = run_channel(profile, spec, **build_kwargs)
    csv_name = f"{channel}_{scenario}.csv"
    samples.to_csv(outdir / csv_name)
    cell = {
        "samples_csv": csv_name,
        "metadata": samples.metadata,
        **_measure(samples.inputs, samples.outputs, cfg, seed, f"{channel}/{scenario}"),
    }
    matrix_name = f"{channel}_{scenario}_matrix.csv"
    _write_matrix(samples.inputs, samples.outputs, cfg.matrix_bins, outdir / matrix_name)
    cell["matrix_csv"] = matrix_name
    for name, extra in samples.extra.items():
        extra_csv = f"{channel}_{scenario}_{name}.csv"
        SampleSet(samples.inputs, extra).to_csv(outdir / extra_csv)
        cell[name] = {"samples_csv": extra_csv,
                      **_measure(samples.inputs, extra, cfg, seed, f"{channel}/{scenario}")}
    return cell


def _measure(inputs, outputs, cfg: RunConfig, seed: int, cell: str) -> dict:
    try:
        verdict = leak_verdict(inputs, outputs, shuffles=cfg.shuffles, seed=seed + 1,
                               grid_points=cfg.grid_points, eps=cfg.kde_eps)
    except (DegenerateAlphabet, TooFewSamples) as exc:
        raise ConfigError(
            f"cell {cell}: {exc}; raise iterations (now {cfg.iterations}) so that"
            f" every symbol gets at least 2 samples") from None
    except GridUnbuildable as exc:
        raise ConfigError(f"cell {cell}: {exc}") from None
    return report_record(verdict)


def _write_matrix(inputs, outputs, bins: int, path: Path):
    symbols, edges, matrix = channel_matrix(inputs, outputs, bins)
    with open(path, "w") as fh:
        header = ["input"] + [repr(float(e)) for e in edges[:-1]]
        fh.write(",".join(header) + "\n")
        for sym, row in zip(symbols, matrix):
            fh.write(",".join([str(sym)] + [repr(float(v)) for v in row]) + "\n")


def profile_summary(profile: PlatformProfile) -> dict:
    out = {"name": profile.name, "page_bytes": profile.page_bytes,
           "partitioned_cache": profile.partitioned_cache,
           "line_bytes": profile.line_bytes, "caches": {}}
    for name, geo in profile.geometries.items():
        out["caches"][name] = {
            "size_bytes": geo.size_bytes, "ways": geo.ways,
            "line_bytes": geo.line_bytes, "sets": geo.sets,
            "indexing": geo.indexing,
            "colours": colour_count(geo, profile.page_bytes)
            if geo.indexing == "physical" else None,
        }
    return out


# -- switch-cost table ------------------------------------------------------

def _switch_workload(sim: Simulator, workload: str):
    """One slice of the named receiver workload (a window probe)."""
    if workload == "idle":
        return lambda: None
    window = group_window(sim, workload, probe_window(sim, RECEIVER, workload))
    return lambda: probe(sim, workload, window)


def measure_switch_costs(profile: PlatformProfile, scenario: str,
                         **build_kwargs) -> dict:
    """Cost of switching away from a domain running each receiver workload to
    an idle domain, per scenario, in the last of ``SWITCH_ROUNDS`` rounds."""
    out = {}
    for workload in SWITCH_WORKLOADS:
        if workload == "llc" and "llc" not in profile.geometries:
            continue
        sim = build_scenario(profile, scenario, **build_kwargs).sim
        run = _switch_workload(sim, workload)
        for _ in range(SWITCH_ROUNDS):
            sim.domain_switch(RECEIVER)
            run()
            trace = sim.domain_switch(SENDER)
        out[workload] = trace.total_elapsed
        del sim, run  # release this system before the next one is built
    return out


def flush_cost_table(profile: PlatformProfile) -> dict:
    """Worst-case direct flush cost per resource (all lines dirty where the
    resource can hold dirty data)."""
    machine = profile.build_machine()
    return {name: machine.flush_worst_case(name) for name in machine.resource_ids()}


# -- colouring overhead -------------------------------------------------------

def measure_colour_overhead(profile: PlatformProfile, working_set_bytes: int,
                            share: float) -> float:
    """Slowdown of a streaming read workload when confined to a share of the
    partitioned cache's colours: cycles(share) / cycles(all colours) - 1."""
    if not (0 < share <= 1):
        raise ValueError("share must be in (0, 1]")
    geometry = profile.geometries[profile.partitioned_cache]
    colours = colour_count(geometry, profile.page_bytes)
    allowed = max(1, math.floor(colours * share))
    full = _stream_cycles(profile, working_set_bytes, colours, colours)
    restricted = _stream_cycles(profile, working_set_bytes, colours, allowed)
    return restricted / full - 1.0


def _stream_cycles(profile: PlatformProfile, working_set_bytes: int,
                   colours: int, allowed_colours: int) -> int:
    """Cycles of the warm passes over ``allowed_colours`` of ``colours``."""
    machine = profile.build_machine()
    page = profile.page_bytes
    n_pages = math.ceil(working_set_bytes / page)
    # round-robin page frames over the allowed colours
    frames = [(i // allowed_colours) * colours + (i % allowed_colours)
              for i in range(n_pages)]
    line, per = profile.line_bytes, profile.lines_per_page
    addrs = [f * page + j * line for f in frames for j in range(per)]
    data_path = machine.data_path
    window = data_path.group([(a, a) for a in addrs])
    data_path.probe(window)  # the cold pass, not counted
    return sum(data_path.probe(window)[0] for _ in range(STREAM_PASSES - 1))
