"""Command-line interface.

Verbs:
  run <config> -o DIR     run a full scenario config (path or built-in name)
  analyze <samples.csv>   statistics only, on an existing sample CSV
  profiles                list built-in platform profiles
  switch-cost P S         print the switch-cost table for profile P, scenario S

Exit codes: 0 success, 2 configuration or input error, 3 pad overrun.

Each verb imports the simulator layers it runs, so ``analyze`` loads only
the configuration, the samples and the statistics.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from tcsim.config import (SCENARIOS, ConfigError, PadOverrun, RunConfig, check_range,
                          load_config, parse_config, range_text)
from tcsim.samples import SampleSet
from tcsim.stats import (DegenerateAlphabet, GridUnbuildable, TooFewSamples,
                         leak_verdict, report_record)


def builtin_config_names() -> list[str]:
    root = resources.files("tcsim") / "configs"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def resolve_config(name: str):
    path = Path(name)
    if path.exists():
        return load_config(path)
    builtin = resources.files("tcsim") / "configs" / f"{name}.cfg"
    if builtin.is_file():
        return parse_config(builtin.read_text(), source=f"builtin:{name}")
    raise ConfigError(
        f"no config file {name!r} and no such built-in"
        f" (built-ins: {', '.join(builtin_config_names())})")


def cmd_run(args) -> int:
    from tcsim.colouring import PoolExhausted
    from tcsim.harness import run_scenario

    cfg = resolve_config(args.config)
    try:
        report = run_scenario(cfg, args.out)
    except PoolExhausted as exc:
        raise ConfigError(f"{exc}: frames = {cfg.frames} is too few for this run") from None
    print(f"report written to {Path(args.out) / 'report.json'}")
    print_cells(report)
    return 0


def print_cells(report: dict) -> None:
    """Print one line per cell of a report: M and M0 with the leak verdict,
    or the key recovery of the LLC side channel."""
    for channel, cells in report.get("channels", {}).items():
        for scenario, cell in cells.items():
            if "m_millibits" in cell:
                print(f"  {channel:14} {scenario:10} M={cell['m_millibits']:10.3f} mb "
                      f"M0={cell['m0_millibits']:10.3f} mb leak={cell['leak']}")
            elif "recovery_accuracy" in cell:
                print(f"  {channel:14} {scenario:10} key recovery "
                      f"{100 * cell['recovery_accuracy']:.1f}%")


def cmd_analyze(args) -> int:
    check_range("shuffles", args.shuffles, "--shuffles")
    check_range("grid_points", args.grid_points, "--grid-points")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    try:
        samples = SampleSet.from_csv(args.samples)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.samples}: {exc.strerror}") from None
    except KeyError as exc:
        raise ConfigError(f"{args.samples}: missing column {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{args.samples}: {exc}") from None
    try:
        verdict = leak_verdict(samples.inputs, samples.outputs,
                               shuffles=args.shuffles, seed=args.seed,
                               grid_points=args.grid_points)
    except (DegenerateAlphabet, GridUnbuildable, TooFewSamples) as exc:
        raise ConfigError(f"{args.samples}: {exc}") from None
    record = report_record(verdict)
    record["source"] = str(args.samples)
    text = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc.strerror}") from None
    print(text)
    return 0


def cmd_profiles(_args) -> int:
    from tcsim.harness import profile_summary
    from tcsim.profiles import BUILTIN_PROFILES, get_profile

    for name in sorted(BUILTIN_PROFILES):
        summary = profile_summary(get_profile(name))
        print(f"{name}: partitioned cache = {summary['partitioned_cache']}, "
              f"line = {summary['line_bytes']} B")
        for cache, geo in summary["caches"].items():
            colours = f", colours={geo['colours']}" if geo["colours"] else ""
            print(f"  {cache:4} {geo['size_bytes']:>10} B {geo['ways']:>2}-way "
                  f"{geo['sets']:>5} sets ({geo['indexing']}{colours})")
    print("built-in configs:", ", ".join(builtin_config_names()))
    return 0


def cmd_switch_cost(args) -> int:
    from tcsim.harness import measure_switch_costs
    from tcsim.profiles import get_profile

    try:
        profile = get_profile(args.profile)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    table = measure_switch_costs(profile, args.scenario)
    print(f"switch-away cost (cycles), profile={args.profile}, scenario={args.scenario}")
    for workload, cost in table.items():
        print(f"  {workload:5} {cost}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcsim",
        description="deterministic timing-channel simulator and leakage measurement")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario config")
    p.add_argument("config", help="config file path or built-in config name")
    p.add_argument("-o", "--out", default="tcsim-out", help="output directory")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("analyze", help="measure leakage of a samples CSV")
    p.add_argument("samples", help="CSV with iteration,input,output columns")
    p.add_argument("--shuffles", type=int, default=RunConfig.shuffles,
                   help=f"zero-leakage bound trials ({range_text('shuffles')})")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed (>= 0)")
    p.add_argument("--grid-points", type=int, default=RunConfig.grid_points,
                   help=f"KDE integration grid points ({range_text('grid_points')})")
    p.add_argument("-o", "--out", default=None, help="also write the record here")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("profiles", help="list built-in platform profiles")
    p.set_defaults(fn=cmd_profiles)

    p = sub.add_parser("switch-cost", help="switch-cost table for a profile/scenario")
    p.add_argument("profile")
    p.add_argument("scenario", choices=SCENARIOS)
    p.set_defaults(fn=cmd_switch_cost)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PadOverrun as exc:
        print(f"pad overrun: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
