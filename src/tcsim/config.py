"""Experiment configuration: flat key=value sections, strictly validated.

Unknown sections or keys are errors (fail fast, with line numbers), as are
malformed and out-of-range values. Every tunable that affects results lives
here and is echoed into the report. Each key is declared once, on its
``RunConfig`` field; the schema, the echo and the range checks derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

SCENARIOS = ("raw", "full_flush", "protected")


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


def _parse_list(text: str) -> tuple:
    return tuple(p.strip() for p in text.split(",") if p.strip())


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


def _key(section: str, default, parse=int, lo=None, hi=None, key=None):
    """Declare a config key on its ``RunConfig`` field: its [section], its
    name where it is not the field's, its default, the parser of its value
    text, and the closed range ``lo..hi`` its value must lie in (``None``:
    open on that side)."""
    return field(default=default, metadata={
        "section": section, "key": key, "parse": parse, "lo": lo, "hi": hi})


@dataclass
class RunConfig:
    """Parsed experiment configuration with defaults. Each field but
    ``raw_text`` is a config key, declared by ``_key``."""

    profile: str = _key("platform", "haswell", str)
    colour_split: tuple = _key(
        "domains", (50, 50), lambda s: tuple(int(x) for x in _parse_list(s)))
    # every scenario build holds each page number of the pool: 4 GiB of 4 KiB pages
    frames: int = _key("domains", 4096, lo=1024, hi=1 << 20)
    # larger cycle counts overflow the interrupt phases or the KDE grid
    timeslice_cycles: int = _key("switch", 200_000, lo=1, hi=1 << 40)
    pad_cycles: object = _key("switch", "auto", _parse_pad, lo=0, hi=1 << 40)
    # larger margins overflow the auto pad
    irq_margin_pct: float = _key("switch", 5.0, float, lo=0, hi=10**6)
    irq_owners: tuple = _key("switch", (), _parse_irq_owners)
    channels: tuple = _key("channels", (), _parse_list, key="run")
    scenarios: tuple = _key("channels", SCENARIOS, _parse_list)
    iterations: int = _key("channels", 1200, lo=1, hi=1 << 22)
    warmup: int = _key("channels", 8, lo=0, hi=1 << 22)
    seed: int = _key("channels", 1)
    # larger noise overflows the KDE grid
    noise_sigma_pct: float = _key("channels", 2.0, float, lo=0, hi=10**6)
    symbols: int = _key("channels", 4, lo=2, hi=16)
    llc_key_bits: int = _key("channels", 64, lo=1, hi=1 << 12)
    llc_key_seed: int = _key("channels", 48, lo=0)
    switch_cost_table: bool = _key("channels", True, _parse_bool)
    colour_overhead: bool = _key("channels", False, _parse_bool)
    overhead_shares: tuple = _key(
        "channels", (0.5, 0.75, 1.0), lambda s: tuple(float(x) for x in _parse_list(s)))
    overhead_working_set_kib: int = _key("channels", 256, lo=1, hi=1 << 14)
    # the shuffle bound needs a sample sd; the KDE grid needs room for a kernel
    shuffles: int = _key("stats", 100, lo=2, hi=1 << 16)
    grid_points: int = _key("stats", 4096, lo=16, hi=1 << 16)
    matrix_bins: int = _key("stats", 64, lo=2, hi=1 << 16)
    # larger bandwidths overflow the KDE grid
    kde_eps: float = _key("stats", 1e-6, float, hi=1e300)
    raw_text: str = ""

    def echo(self) -> dict:
        out = {}
        for f in _KEYS:
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


# every field but raw_text, in declaration order
_KEYS = tuple(f for f in fields(RunConfig) if f.metadata)
# {section: {key: (field name, parser)}}, sections and keys in field order
_SCHEMA: dict = {}
for _f in _KEYS:
    _SCHEMA.setdefault(_f.metadata["section"], {})[_f.metadata["key"] or _f.name] = (
        _f.name, _f.metadata["parse"])


def range_text(name: str) -> str:
    """The range declared for the ``RunConfig`` field ``name``, as text."""
    meta = RunConfig.__dataclass_fields__[name].metadata
    lo, hi = meta["lo"], meta["hi"]
    return f">= {lo}" if hi is None else f"<= {hi}" if lo is None else f"in {lo}..{hi}"


def check_range(name: str, value, label: str):
    """Raise ``ConfigError`` unless ``value`` lies in the range declared for
    the ``RunConfig`` field ``name``; ``label`` names the value in the message."""
    meta = RunConfig.__dataclass_fields__[name].metadata
    lo, hi = meta["lo"], meta["hi"]
    if not ((lo is None or lo <= value) and (hi is None or value <= hi)):
        raise ConfigError(f"{label} must be {range_text(name)}, got {value}")


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
    for key, names in (("run", cfg.channels), ("scenarios", cfg.scenarios),
                       ("irq_owners", [irq for irq, _ in cfg.irq_owners])):
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ConfigError(f"{source}: {key} names {repeated} more than once")
    if len(cfg.colour_split) != 2 or sum(cfg.colour_split) != 100 or min(cfg.colour_split) <= 0:
        raise ConfigError(
            f"{source}: colour_split must be two positive shares summing to 100,"
            f" got {cfg.colour_split}")
    domains = {domain for _, domain in cfg.irq_owners} - {SENDER, RECEIVER}
    if domains:
        raise ConfigError(
            f"{source}: unknown irq_owners domains {sorted(domains)}"
            f" (known: {SENDER}, {RECEIVER})")
    if not cfg.kde_eps > 0:
        raise ConfigError(f"{source}: kde_eps must be > 0, got {cfg.kde_eps}")
    for s in cfg.overhead_shares:
        if not (0 < s <= 1):
            raise ConfigError(f"{source}: overhead shares must be in (0, 1]")
    for f in _KEYS:
        if getattr(cfg, f.name) != "auto":
            check_range(f.name, getattr(cfg, f.name), f"{source}: {f.name}")


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    return parse_config(text, source=str(path))
