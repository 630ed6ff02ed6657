"""Command-line interface.

Verbs:
  run <config> -o DIR     run a full scenario config (path or built-in name)
  analyze <samples.csv>   statistics only, on an existing sample CSV
  profiles                list built-in platform profiles
  switch-cost P S         print the switch-cost table for profile P, scenario S

Exit codes: 0 success, 2 configuration or input error, 3 pad overrun.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from tcsim.channels import SampleSet
from tcsim.config import ConfigError, load_config, parse_config
from tcsim.harness import (_jsonable, measure_switch_costs, profile_summary,
                           run_scenario)
from tcsim.kernel import PadOverrun
from tcsim.profiles import BUILTIN_PROFILES, get_profile
from tcsim.scenarios import SCENARIOS
from tcsim.stats import (DegenerateAlphabet, TooFewSamples, leak_verdict,
                         report_record)


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
    cfg = resolve_config(args.config)
    report = run_scenario(cfg, args.out)
    print(f"report written to {Path(args.out) / 'report.json'}")
    for channel, cells in report.get("channels", {}).items():
        for scenario, cell in cells.items():
            if "m_millibits" in cell:
                print(f"  {channel:14} {scenario:10} M={cell['m_millibits']:10.3f} mb "
                      f"M0={cell['m0_millibits']:10.3f} mb leak={cell['leak']}")
            elif "recovery_accuracy" in cell:
                print(f"  {channel:14} {scenario:10} key recovery "
                      f"{100 * cell['recovery_accuracy']:.1f}%")
    return 0


def cmd_analyze(args) -> int:
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
    except (DegenerateAlphabet, TooFewSamples) as exc:
        raise ConfigError(f"{args.samples}: {exc}") from None
    record = report_record(verdict)
    record["source"] = str(args.samples)
    text = json.dumps(_jsonable(record), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_profiles(_args) -> int:
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
    p.add_argument("--shuffles", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=4096)
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
