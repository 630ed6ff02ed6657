"""Experiment configuration: flat key=value sections, strictly validated.

Unknown sections or keys are errors (fail fast, with line numbers), as are
malformed values. Every tunable that affects results lives here and is echoed
into the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

SCENARIOS = ("raw", "full_flush", "protected")
# the shuffle bound needs a sample sd; the KDE grid needs room for a kernel
MIN_SHUFFLES = 2
MIN_GRID_POINTS = 16
# every scenario build holds each page number of the pool: 4 GiB of 4 KiB pages
MAX_FRAMES = 1 << 20


class ConfigError(ValueError):
    """Configuration problem, with file/line/key context where available."""


class PadOverrun(RuntimeError):
    """The natural switch cost exceeded the configured pad; the configuration
    promised a worst-case latency it cannot keep, so this surfaces instead of
    being silently absorbed."""


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
    scenarios: tuple = SCENARIOS
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
    # the registries load the simulator, which analysing a CSV never needs
    from tcsim.channels import CHANNEL_NAMES
    from tcsim.profiles import get_profile
    from tcsim.scenarios import RECEIVER, SENDER

    try:
        get_profile(cfg.profile)
    except KeyError as exc:
        raise ConfigError(f"{source}: {exc.args[0]}") from None
    unknown = set(cfg.channels) - set(CHANNEL_NAMES)
    if unknown:
        raise ConfigError(
            f"{source}: unknown channels {sorted(unknown)} (known: {', '.join(CHANNEL_NAMES)})")
    bad = set(cfg.scenarios) - set(SCENARIOS)
    if bad:
        raise ConfigError(f"{source}: unknown scenarios {sorted(bad)}")
    if len(cfg.colour_split) != 2 or sum(cfg.colour_split) != 100 or min(cfg.colour_split) <= 0:
        raise ConfigError(
            f"{source}: colour_split must be two positive shares summing to 100,"
            f" got {cfg.colour_split}")
    domains = {domain for _, domain in cfg.irq_owners} - {SENDER, RECEIVER}
    if domains:
        raise ConfigError(
            f"{source}: unknown irq_owners domains {sorted(domains)}"
            f" (known: {SENDER}, {RECEIVER})")
    if cfg.pad_cycles != "auto" and cfg.pad_cycles < 0:
        raise ConfigError(f"{source}: pad_cycles must be auto or >= 0, got {cfg.pad_cycles}")
    if not (math.isfinite(cfg.irq_margin_pct) and cfg.irq_margin_pct >= 0):
        raise ConfigError(f"{source}: irq_margin_pct must be >= 0, got {cfg.irq_margin_pct}")
    if not (1024 <= cfg.frames <= MAX_FRAMES):
        raise ConfigError(f"{source}: frames must be in 1024..{MAX_FRAMES}, got {cfg.frames}")
    if cfg.timeslice_cycles <= 0:
        raise ConfigError(f"{source}: timeslice_cycles must be > 0, got {cfg.timeslice_cycles}")
    if cfg.iterations < 1 or cfg.warmup < 0:
        raise ConfigError(f"{source}: iterations must be >= 1 and warmup >= 0")
    if cfg.shuffles < MIN_SHUFFLES or cfg.grid_points < MIN_GRID_POINTS or cfg.matrix_bins < 2:
        raise ConfigError(f"{source}: invalid stats settings")
    if not (math.isfinite(cfg.kde_eps) and cfg.kde_eps > 0):
        raise ConfigError(f"{source}: kde_eps must be > 0, got {cfg.kde_eps}")
    if not (math.isfinite(cfg.noise_sigma_pct) and cfg.noise_sigma_pct >= 0):
        raise ConfigError(f"{source}: noise_sigma_pct must be finite and >= 0,"
                          f" got {cfg.noise_sigma_pct}")
    if cfg.llc_key_bits < 1:
        raise ConfigError(f"{source}: llc_key_bits must be >= 1, got {cfg.llc_key_bits}")
    if cfg.llc_key_seed < 0:
        raise ConfigError(f"{source}: llc_key_seed must be >= 0, got {cfg.llc_key_seed}")
    if not (2 <= cfg.symbols <= 16):
        raise ConfigError(f"{source}: symbols must be in 2..16")
    for s in cfg.overhead_shares:
        if not (0 < s <= 1):
            raise ConfigError(f"{source}: overhead shares must be in (0, 1]")
    if cfg.overhead_working_set_kib <= 0:
        raise ConfigError(f"{source}: overhead_working_set_kib must be > 0,"
                          f" got {cfg.overhead_working_set_kib}")


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    return parse_config(text, source=str(path))
