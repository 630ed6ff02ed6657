"""Attack workloads: generate (input symbol, timing output) datasets.

Every sample channel has the same shape: a sender (or victim) domain
modulates some shared hardware state according to a secret input symbol in
its slice, then a receiver (or spy) domain measures its own execution timing
after the switch, and the pair stream is collected for the statistics
pipeline. ``CHANNELS`` names each channel and its setup hook, and
``run_channel`` is the one loop that drives them. Probes target the attacked
resource directly; the multi-level hierarchy carries kernel traffic, whose
costs show up in switch latencies exactly as the receiver can observe them.

All runs are pure functions of (spec, seed): the symbol schedule, any
measurement jitter, and interrupt phases come from one seeded generator, so
a SampleSet is reproducible bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tcsim.config import RunConfig
from tcsim.kernel import KernelParams, Simulator
from tcsim.microarch import CacheState, colour_count
from tcsim.profiles import PlatformProfile
from tcsim.samples import SampleSet
from tcsim.scenarios import RECEIVER, SENDER, build_scenario

SYSCALLS = tuple(KernelParams().syscall_footprints)

# probed sets per window; kept small enough that a full run of every channel
# and scenario stays fast, large enough to dominate jitter
WINDOW_SETS = 32


@dataclass(frozen=True)
class ChannelSpec:
    """What to run and how. ``noise_sigma`` is the absolute standard
    deviation, in cycles, of the Gaussian jitter added to every recorded
    output (zero disables injection)."""

    channel_kind: str
    scenario: str
    iterations: int = RunConfig.iterations
    seed: int = 1
    input_alphabet: tuple = ()
    noise_sigma: float = 0.0
    warmup: int = RunConfig.warmup

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")


def _noise(rng: np.random.Generator, sigma: float, n: int) -> np.ndarray:
    return rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)


# -- probe windows ------------------------------------------------------------

def _virtual_window(sim: Simulator, domain: str, cache: CacheState,
                    window_sets: int) -> list[int]:
    """Addresses for `ways` lines in each of the first ``window_sets`` sets of
    a virtually indexed resource, built on an aligned frameless mapping, in
    probe order (way by way)."""
    geo = cache.geometry
    span = geo.sets * geo.line_bytes
    pages = math.ceil(geo.ways * span / sim.profile.page_bytes)
    align = max(1, span // sim.profile.page_bytes)
    step = align * sim.profile.page_bytes
    base = -(-sim.alloc_vpages(domain, pages + align) // step) * step  # rounded up to a step
    return [base + way * span + s * geo.line_bytes
            for way in range(geo.ways) for s in range(window_sets)]


def _first_colour(sim: Simulator, domain: str) -> int:
    # uncoloured domains probe the boot image's colour so the kernel
    # footprint lands inside the window
    return min(sim.partition.domain_colours.get(domain) or (0,))


def probe_window(sim: Simulator, domain: str, resource: str) -> list[int]:
    """The domain's probe window on a resource, its addresses in probe order
    (way by way): the first ``WINDOW_SETS`` sets of a virtually indexed
    resource, or every line of `ways` frames of the domain's first colour
    of a physically indexed one, frame by frame."""
    cache = sim.machine.caches[resource]
    if cache.geometry.indexing == "virtual":
        return _virtual_window(sim, domain, cache, WINDOW_SETS)
    pairs = sim.alloc_buffer(domain, cache.geometry.ways, _first_colour(sim, domain))
    return [pa for _, pa in pairs]


def group_window(sim: Simulator, resource: str, lines: list[int]) -> tuple:
    """A window ready for ``probe``: its lines in probe order, and the same
    lines grouped by set of the resource (``CacheState.group``)."""
    return lines, sim.machine.caches[resource].group((a, a) for a in lines)


def probe(sim: Simulator, resource: str, window) -> int:
    """Access every line of a ``group_window`` window, set by set, as if in
    probe order; returns the total latency. BTB lines are taken branches
    through the predictor."""
    lines, groups = window
    if resource == "btb":
        return sim.machine.predictor.touch_window(groups, lines)
    return sim.machine.caches[resource].probe_groups(groups)


# -- channel setup hooks ------------------------------------------------------
#
# A hook builds the scenario and returns (sim, send, measure, meta); see
# Channel. Hooks run after the schedule is drawn and before the noise is.

def _prime_probe(profile, spec, alphabet, rng, build_kwargs):
    """Receiver primes a window of the resource, the sender touches one line
    in as many window sets as its symbol says (one foreign line displaces
    the receiver's contents there), and the re-probe latency is the output."""
    resource = spec.channel_kind
    if max(alphabet) > WINDOW_SETS:
        raise ValueError("touched-set symbol exceeds the probe window")
    sim = build_scenario(profile, spec.scenario, **build_kwargs).sim
    recv_window = group_window(sim, resource, probe_window(sim, RECEIVER, resource))
    # the sender's first way covers at least WINDOW_SETS sets
    send_lines = probe_window(sim, SENDER, resource)
    send_windows = {count: group_window(sim, resource, send_lines[:count])
                    for count in alphabet}
    probe(sim, resource, recv_window)

    def send(count):
        probe(sim, resource, send_windows[count])

    def measure(it, trace):
        return [(probe(sim, resource, recv_window),)]

    return sim, send, measure, {}


def _bhb(profile, spec, alphabet, rng, build_kwargs):
    """Direction-history channel: the sender trains one conditional branch
    taken or not-taken until the global history saturates; the receiver times
    one congruent taken branch."""
    if set(alphabet) - {"not_taken", "taken"}:
        raise ValueError("bhb channel alphabet is {not_taken, taken}")
    sim = build_scenario(profile, spec.scenario, **build_kwargs).sim
    predictor = sim.machine.predictor
    branch = sim.alloc_vpages(SENDER, 1)
    train = predictor.history_bits + 8

    def send(symbol):
        for _ in range(train):
            predictor.touch(branch, taken=(symbol == "taken"))

    def measure(it, trace):
        return [(predictor.touch(branch, taken=True),)]

    return sim, send, measure, {}


def _kernel(profile, spec, alphabet, rng, build_kwargs):
    """Kernel-image channel: the sender encodes symbols as system calls with
    distinct kernel footprints while the receiver prime&probes the partitioned
    cache and records its miss count.

    The receiver's probe buffer is loaded through the full hierarchy (its
    size matches the L1, so kernel lines cannot hide there), and the output is
    the number of probe lines missing from the partitioned cache just before
    each is read. The buffer is grouped once and probed set by set
    (``MemoryHierarchy.probe``)."""
    bad = set(alphabet) - set(SYSCALLS)
    if bad:
        raise ValueError(f"unknown syscalls {sorted(bad)}")
    sim = build_scenario(profile, spec.scenario, **build_kwargs).sim
    cache = sim.machine.caches[profile.partitioned_cache]
    pairs = sim.alloc_buffer(RECEIVER, cache.geometry.ways,
                             _first_colour(sim, RECEIVER))

    def send(symbol):
        for _ in range(3):
            sim.syscall(SENDER, symbol)

    data_path = sim.machine.data_path
    window = data_path.group(pairs)

    def measure(it=None, trace=None):
        return [(data_path.probe(window, cache)[1],)]

    measure()
    return sim, send, measure, {"probe_lines": len(pairs),
                                "window_lines_per_frame": sim.profile.lines_per_page}


def _flush_latency(profile, spec, alphabet, rng, build_kwargs):
    """Switch-latency channel: the sender dirties k cache lines, modulating
    the write-back portion of the on-core flush; the receiver observes its
    offline time (gap between its slices) and online time. Scenarios other
    than ``protected`` run the same flushing build with padding disabled."""
    pad = build_kwargs.get("pad_cycles", "auto") if spec.scenario == "protected" else 0
    sim = build_scenario(profile, "protected",
                         **{**build_kwargs, "pad_cycles": pad}).sim
    l1d = sim.machine.caches["l1d"]
    if max(alphabet) > l1d.geometry.lines:
        raise ValueError("dirty-line symbol exceeds L1-D capacity")
    lines = _virtual_window(sim, SENDER, l1d, l1d.geometry.sets)
    dirtied = {k: l1d.group((a, a) for a in lines[:k]) for k in alphabet}
    slice_cycles = sim.timeslice_cycles

    def send(k):
        l1d.probe_groups(dirtied[k], True)

    def measure(it, trace):
        return [(slice_cycles + trace.total_elapsed, slice_cycles - trace.total_elapsed)]

    return sim, send, measure, {"padded": sim.cfg.pad_cycles > 0}


def _interrupt(profile, spec, alphabet, rng, build_kwargs):
    """Interrupt channel: the sender either arms a periodic device interrupt
    ("yes") or stays quiet ("no"); the receiver records the lengths of its
    uninterrupted execution intervals. With IRQs partitioned the sender's
    image owns the interrupt. The kernel alone decides delivery: an armed
    interrupt cuts the receiver's slice, once, at a random phase, when
    ``Simulator.irq_fires`` says it is unmasked there."""
    if set(alphabet) - {"no", "yes"}:
        raise ValueError("interrupt channel alphabet is {no, yes}")
    sim = build_scenario(profile, spec.scenario, **build_kwargs).sim
    irq = 1
    if sim.cfg.partition_irqs:
        sim.set_irq_owner(irq, sim.domains[SENDER].kernel_image)
    slice_cycles = sim.timeslice_cycles
    period = slice_cycles // 10
    handler = sim.kparams.irq_handler_cycles
    phases = rng.uniform(0.0, period, size=spec.warmup + spec.iterations)
    armed = False

    def send(symbol):
        nonlocal armed
        armed = symbol == "yes"

    def measure(it, trace):
        base = slice_cycles - trace.total_elapsed
        if armed and sim.irq_fires(irq):
            offset = phases[it]
            return [(offset,), (base - offset - handler,)]
        return [(base,)]

    return sim, send, measure, {"slice_cycles": slice_cycles, "period": period}


# -- the registry and the runner loop -----------------------------------------

@dataclass(frozen=True)
class Channel:
    """One sample channel. ``setup(profile, spec, alphabet, rng,
    build_kwargs)`` builds the scenario and returns ``(sim, send, measure,
    meta)``: ``send(symbol)`` runs in the sender's slice, ``measure(it,
    trace)`` in the receiver's after the switch that produced ``trace``, and
    returns the iteration's rows of one value per output stream; ``meta``
    joins the sample metadata. ``alphabet(profile, symbols)`` is the default
    input alphabet. Each iteration draws ``draws`` noise values, taken by its
    row values in order."""

    setup: Callable
    alphabet: Callable
    resource: str | None = None  # attacked resource, recorded in metadata
    noise_resource: str | None = None  # scales the noise; None: partitioned cache
    draws: int = 1
    extra: tuple = ()  # names of the output streams after the first


def _touched_sets(profile, symbols):
    """Touched-set counts from idle to the full window."""
    return tuple(round(i * WINDOW_SETS / (symbols - 1)) for i in range(symbols))


def _dirty_lines(profile, symbols):
    """Dirty-line counts from none to the whole L1-D in four steps."""
    return tuple(round(i * profile.geometries["l1d"].lines / 3) for i in range(4))


CHANNELS = {
    "kernel": Channel(_kernel, lambda profile, symbols: SYSCALLS),
    **{name: Channel(_prime_probe, _touched_sets, resource=name, noise_resource=name)
       for name in ("l1d", "l1i", "l2", "tlb", "btb")},
    "bhb": Channel(_bhb, lambda profile, symbols: ("not_taken", "taken"),
                   resource="bhb", noise_resource="btb"),
    "flush_latency": Channel(_flush_latency, _dirty_lines, draws=2, extra=("online",)),
    "interrupt": Channel(_interrupt, lambda profile, symbols: ("no", "yes"), draws=2),
}
# every channel a config may run: the sample channels and the LLC side channel
CHANNEL_NAMES = (*CHANNELS, "llc_side")


def run_channel(profile: PlatformProfile, spec: ChannelSpec, **build_kwargs) -> SampleSet:
    """Run one channel of ``CHANNELS``. Every iteration, warmup included,
    switches to the sender, sends its symbol, switches to the receiver and
    measures; rows after the warmup are recorded. (The cross-core side
    channel has its own entry point, ``run_llc_side_channel``.)"""
    channel = CHANNELS.get(spec.channel_kind)
    if channel is None:
        raise ValueError(f"unknown channel kind {spec.channel_kind!r}")
    alphabet = spec.input_alphabet or channel.alphabet(profile, RunConfig.symbols)
    rng = np.random.default_rng(spec.seed)
    total = spec.warmup + spec.iterations
    schedule = rng.integers(0, len(alphabet), size=total)
    sim, send, measure, meta = channel.setup(profile, spec, alphabet, rng, build_kwargs)
    noise = _noise(rng, spec.noise_sigma, channel.draws * total)
    inputs, columns = [], [[] for _ in range(1 + len(channel.extra))]
    for it in range(total):
        symbol = alphabet[schedule[it]]
        sim.domain_switch(SENDER)
        send(symbol)
        rows = measure(it, sim.domain_switch(RECEIVER))
        if it < spec.warmup:
            continue
        j = channel.draws * it
        for row in rows:
            inputs.append(str(symbol))
            for column, value in zip(columns, row):
                column.append(value + noise[j])
                j += 1
    return SampleSet(inputs, np.array(columns[0]),
                     metadata=_meta(profile, channel.resource, channel=spec.channel_kind,
                                    scenario=spec.scenario, seed=spec.seed,
                                    iterations=spec.iterations, warmup=spec.warmup,
                                    noise_sigma=spec.noise_sigma, alphabet=alphabet, **meta),
                     extra={name: np.array(column)
                            for name, column in zip(channel.extra, columns[1:])})


GAP_ZERO = 2  # quanta between square touches encoding a 0 bit
GAP_ONE = 4   # and a 1 bit


def run_llc_side_channel(profile: PlatformProfile, scenario: str,
                         seed: int = RunConfig.llc_key_seed,
                         key_bits: int = RunConfig.llc_key_bits, key=None,
                         **build_kwargs) -> tuple[list, dict]:
    """Cross-core side channel through the shared last-level cache. Returns
    ``(cells, record)``: the spy's trace, and the report's ``llc_side`` cell
    but its ``trace_csv``. ``seed`` draws the key, unless ``key`` is given.

    The victim mimics an exponentiation loop: it touches one fixed "square"
    line and spaces consecutive touches by a short gap for a 0 bit and a long
    gap for a 1 bit. The spy, on another core, primes every set it can reach
    and re-probes each scheduling quantum; intervals between hot quanta on the
    hottest set decode the key. With disjoint colours the victim's set is
    outside the spy's reach and recovery degrades to guessing.

    The spy primes and probes in exact LRU (``CacheState.group`` and
    ``probe_groups``), in prime order, so one victim miss, which evicts the
    set's LRU spy line, makes every spy line in that set miss in turn and
    leaves the set primed again. Only a victim miss changes a primed set,
    and only the square's set, so the spy's re-probe is computed there
    alone: every other probe of a primed set hits all its ways and reads the
    baseline.

    The trace is sparse: the spy's probe of each of its ``spy_sets`` sets
    reads ``baseline_latency`` cycles in each of ``quanta`` quanta, except at
    the returned cells, (set, quantum, latency) in quantum order: the
    re-probes after a victim miss, each above the baseline.
    """
    sim = build_scenario(profile, scenario, **build_kwargs).sim
    llc = sim.machine.data_path.levels[-1]
    rng = np.random.default_rng(seed)
    key = rng.integers(0, 2, size=key_bits) if key is None \
        else np.asarray(key, dtype=int)
    key_bits = len(key)

    spy_lines = _spy_coverage(sim, RECEIVER, llc)
    victim_pairs = sim.alloc_buffer(SENDER, 1)
    square_addr = victim_pairs[0][1]

    # victim schedule: touch quanta spaced by the per-bit gaps, plus one
    # terminator touch so every bit has a decodable interval
    touch_quanta = [0]
    for bit in key:
        touch_quanta.append(touch_quanta[-1] + (GAP_ONE if bit else GAP_ZERO))
    quanta = touch_quanta[-1] + 2

    llc.probe_groups(llc.group((a, a) for lines in spy_lines.values() for a in lines))
    square_set = llc.locate(square_addr, square_addr)[0]
    reprobe = llc.group((a, a) for a in spy_lines.get(square_set, ()))
    cells = []
    for q in touch_quanta:
        missed = llc.access(square_addr, square_addr) != llc.params.hit_cycles
        if missed and square_set in spy_lines:
            cells.append((square_set, q, llc.probe_groups(reprobe)))

    recovered, hot_set = _decode_trace(cells, key_bits)
    return cells, {
        "recovery_accuracy": float(np.mean(recovered == key)),
        "true_key": "".join(str(b) for b in key),
        "recovered_key": "".join(str(b) for b in recovered),
        "hot_set": hot_set,
        "baseline_latency": llc.geometry.ways * llc.params.hit_cycles,
        "quanta": quanta,
        "spy_sets": len(spy_lines),
        "metadata": _meta(profile, None, channel="llc_side", scenario=scenario, seed=seed,
                          key_bits=key_bits, gap_zero=GAP_ZERO, gap_one=GAP_ONE),
    }


def _spy_coverage(sim: Simulator, domain: str, llc: CacheState) -> dict:
    """Prime-buffer lines grouped by set: `ways` frames for every last-level
    colour reachable from the domain's pool (all colours when uncoloured)."""
    geo = llc.geometry
    page = sim.profile.page_bytes
    per = sim.profile.lines_per_page
    partition = sim.partition
    llc_colours = colour_count(geo, page)
    owned = partition.domain_colours.get(domain)
    reachable = {c for c in range(llc_colours)
                 if not owned or c % partition.colours in owned}
    buckets: dict[int, list[int]] = {c: [] for c in reachable}
    needed = geo.ways * len(reachable)
    allocated = 0
    while allocated < needed:
        f = partition.allocate(domain)[0]
        c = f % llc_colours
        if len(buckets.get(c, [])) < geo.ways:
            buckets[c].append(f * page)
            allocated += 1
    lines: dict[int, list[int]] = {}
    for c, frame_addrs in buckets.items():
        for slot in range(per):
            set_idx = c * per + slot
            lines[set_idx] = [fa + slot * sim.profile.line_bytes for fa in frame_addrs]
    return lines


def _decode_trace(cells: list, key_bits: int) -> tuple[np.ndarray, int | None]:
    """The key from a sparse trace, each cell a hot quantum: the set with
    the most of them, the lowest set on a tie, spaces its hot quanta by the
    per-bit gaps. Below ``key_bits + 1`` hot quanta it is a guess."""
    hot: dict[int, list[int]] = {}
    for set_idx, q, _ in cells:
        hot.setdefault(set_idx, []).append(q)
    hot_set = min(hot, key=lambda s: (-len(hot[s]), s), default=None)
    if hot_set is None or len(hot[hot_set]) < key_bits + 1:
        # nothing observable: report a flat all-zeros guess
        return np.zeros(key_bits, dtype=int), None
    gaps = np.diff(hot[hot_set])[:key_bits]
    threshold = (GAP_ZERO + GAP_ONE) / 2
    return (gaps > threshold).astype(int), hot_set


def _meta(profile: PlatformProfile, resource: str | None, **kw) -> dict:
    """A run's sample metadata: its profile, attacked resource and ``kw``,
    tuples and sets as lists."""
    return {"profile": profile.name, "resource": resource,
            **{k: list(v) if isinstance(v, (tuple, set)) else v for k, v in kw.items()}}
