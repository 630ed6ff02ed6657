"""Experiment configuration: flat key=value sections, strictly validated.

Unknown sections or keys are errors (fail fast, with line numbers), as are
malformed values. Every tunable that affects results lives here and is echoed
into the report.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from tcsim.profiles import get_profile

CHANNEL_NAMES = ("kernel", "l1d", "l1i", "l2", "tlb", "btb", "bhb",
                 "flush_latency", "interrupt", "llc_side")
SCENARIO_NAMES = ("raw", "full_flush", "protected")


class ConfigError(ValueError):
    """Configuration problem, with file/line/key context where available."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _parse_pad(text: str):
    t = text.strip().lower()
    if t == "auto":
        return "auto"
    return int(t)


def _parse_irq_owners(text: str) -> tuple:
    """"5:d0, 9:d1" -> ((5, "d0"), (9, "d1"))."""
    pairs = []
    for item in _parse_list(text):
        irq, _, domain = item.partition(":")
        if not domain:
            raise ValueError(f"expected irq:domain, got {item!r}")
        pairs.append((int(irq), domain.strip()))
    return tuple(pairs)


@dataclass
class RunConfig:
    """Parsed experiment configuration with defaults."""

    profile: str = "haswell"
    # [domains]
    colour_split: tuple = (50, 50)
    frames: int = 4096
    # [switch]
    timeslice_cycles: int = 200_000
    pad_cycles: object = "auto"
    irq_margin_pct: float = 5.0
    irq_owners: tuple = ()
    # [channels]
    channels: tuple = ()
    scenarios: tuple = SCENARIO_NAMES
    iterations: int = 1200
    warmup: int = 8
    seed: int = 1
    noise_sigma_pct: float = 2.0
    symbols: int = 4
    llc_key_bits: int = 64
    llc_key_seed: int = 48
    switch_cost_table: bool = True
    colour_overhead: bool = False
    overhead_shares: tuple = (0.5, 0.75, 1.0)
    overhead_working_set_kib: int = 256
    # [stats]
    shuffles: int = 100
    grid_points: int = 4096
    matrix_bins: int = 64
    kde_eps: float = 1e-6
    raw_text: str = ""

    def echo(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "raw_text":
                continue
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


_SCHEMA = {
    "platform": {
        "profile": ("profile", str),
    },
    "domains": {
        "colour_split": ("colour_split", lambda s: tuple(int(x) for x in _parse_list(s))),
        "frames": ("frames", int),
    },
    "switch": {
        "timeslice_cycles": ("timeslice_cycles", int),
        "pad_cycles": ("pad_cycles", _parse_pad),
        "irq_margin_pct": ("irq_margin_pct", float),
        "irq_owners": ("irq_owners", _parse_irq_owners),
    },
    "channels": {
        "run": ("channels", lambda s: tuple(_parse_list(s))),
        "scenarios": ("scenarios", lambda s: tuple(_parse_list(s))),
        "iterations": ("iterations", int),
        "warmup": ("warmup", int),
        "seed": ("seed", int),
        "noise_sigma_pct": ("noise_sigma_pct", float),
        "symbols": ("symbols", int),
        "llc_key_bits": ("llc_key_bits", int),
        "llc_key_seed": ("llc_key_seed", int),
        "switch_cost_table": ("switch_cost_table", _parse_bool),
        "colour_overhead": ("colour_overhead", _parse_bool),
        "overhead_shares": ("overhead_shares", lambda s: tuple(float(x) for x in _parse_list(s))),
        "overhead_working_set_kib": ("overhead_working_set_kib", int),
    },
    "stats": {
        "shuffles": ("shuffles", int),
        "grid_points": ("grid_points", int),
        "matrix_bins": ("matrix_bins", int),
        "kde_eps": ("kde_eps", float),
    },
}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    cfg = RunConfig(raw_text=text)
    section = None
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(
                    f"{source}:{lineno}: unknown section [{section}]"
                    f" (known: {', '.join(_SCHEMA)})")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r} in [{section}]"
                f" (known: {', '.join(_SCHEMA[section])})")
        if (section, key) in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in [{section}]")
        seen.add((section, key))
        attr, parse = _SCHEMA[section][key]
        try:
            setattr(cfg, attr, parse(value))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
    _validate(cfg, source)
    return cfg


def _validate(cfg: RunConfig, source: str):
    try:
        get_profile(cfg.profile)
    except KeyError as exc:
        raise ConfigError(f"{source}: {exc.args[0]}") from None
    unknown = set(cfg.channels) - set(CHANNEL_NAMES)
    if unknown:
        raise ConfigError(
            f"{source}: unknown channels {sorted(unknown)} (known: {', '.join(CHANNEL_NAMES)})")
    bad = set(cfg.scenarios) - set(SCENARIO_NAMES)
    if bad:
        raise ConfigError(f"{source}: unknown scenarios {sorted(bad)}")
    if len(cfg.colour_split) != 2 or sum(cfg.colour_split) != 100 or min(cfg.colour_split) <= 0:
        raise ConfigError(
            f"{source}: colour_split must be two positive shares summing to 100,"
            f" got {cfg.colour_split}")
    if cfg.frames < 1024:
        raise ConfigError(f"{source}: frames must be >= 1024")
    if cfg.iterations < 1 or cfg.warmup < 0:
        raise ConfigError(f"{source}: iterations must be >= 1 and warmup >= 0")
    if cfg.shuffles < 2 or cfg.grid_points < 16 or cfg.matrix_bins < 2:
        raise ConfigError(f"{source}: invalid stats settings")
    if not (2 <= cfg.symbols <= 16):
        raise ConfigError(f"{source}: symbols must be in 2..16")
    for s in cfg.overhead_shares:
        if not (0 < s <= 1):
            raise ConfigError(f"{source}: overhead shares must be in (0, 1]")


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read(), source=str(path))
