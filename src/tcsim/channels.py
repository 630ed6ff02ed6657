"""Attack workloads: generate (input symbol, timing output) datasets.

Each channel follows the same shape: a sender (or victim) domain modulates
some shared hardware state according to a secret input symbol, a receiver
(or spy) domain measures its own execution timing, and the pair stream is
collected for the statistics pipeline. Probes target the attacked resource
directly; the multi-level hierarchy carries kernel traffic, whose costs show
up in switch latencies exactly as the receiver can observe them.

All runs are pure functions of (spec, seed): the symbol schedule, any
measurement jitter, and interrupt phases come from one seeded generator, so
a SampleSet is reproducible bit-exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from tcsim.kernel import Simulator
from tcsim.microarch import CacheState
from tcsim.profiles import PlatformProfile
from tcsim.scenarios import RECEIVER, SENDER, ScenarioSystem, build_scenario

PRIME_PROBE_RESOURCES = ("l1d", "l1i", "l2", "tlb", "btb", "bhb")
SYSCALLS = ("Signal", "SetPriority", "Poll", "Idle")

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
    iterations: int = 1200
    seed: int = 1
    resource: str | None = None
    input_alphabet: tuple = ()
    noise_sigma: float = 0.0
    warmup: int = 8

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass
class SampleSet:
    """Channel measurements: one (input, output) pair per sample."""

    inputs: list
    outputs: np.ndarray
    metadata: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.outputs = np.asarray(self.outputs, dtype=float)
        if len(self.inputs) != len(self.outputs):
            raise ValueError("inputs and outputs must have equal length")
        if not np.all(np.isfinite(self.outputs)):
            raise ValueError("outputs must be finite")

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "input", "output"])
            for i, (inp, out) in enumerate(zip(self.inputs, self.outputs)):
                w.writerow([i, inp, repr(float(out))])

    @classmethod
    def from_csv(cls, path) -> "SampleSet":
        inputs, outputs = [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                inputs.append(row["input"])
                outputs.append(float(row["output"]))
        return cls(inputs, np.array(outputs), metadata={"source": str(path)})


def _noise(rng: np.random.Generator, sigma: float, n: int) -> np.ndarray:
    return rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)


def _virtual_window(sim: Simulator, domain: str, cache: CacheState,
                    window_sets: int) -> list[list[int]]:
    """Addresses for `ways` lines in each of the first ``window_sets`` sets of
    a virtually indexed resource, built on an aligned frameless mapping.
    Returned as [way][set] in probe order."""
    geo = cache.geometry
    span = geo.sets * geo.line_bytes
    pages = math.ceil(geo.ways * span / sim.profile.page_bytes)
    align = max(1, span // sim.profile.page_bytes)
    base = sim.alloc_vpages(domain, pages + align)
    base = (base + align * sim.profile.page_bytes - 1) // (align * sim.profile.page_bytes) \
        * (align * sim.profile.page_bytes)
    return [[base + way * span + s * geo.line_bytes for s in range(window_sets)]
            for way in range(geo.ways)]


def _physical_window(sim: Simulator, domain: str, cache: CacheState,
                     colour: int | None) -> list[list[int]]:
    """Addresses for `ways` frames of one colour of the partitioned cache:
    every line of each frame, giving ways x lines_per_page set coverage."""
    geo = cache.geometry
    per = sim.profile.lines_per_page
    pairs = sim.alloc_buffer(domain, geo.ways, colour)
    frames = [pairs[i * per:(i + 1) * per] for i in range(geo.ways)]
    return [[pa for _, pa in frame] for frame in frames]


def _probe(cache: CacheState, domain: str, window: list[list[int]],
           kind: str = "read") -> int:
    """Re-access every window line; returns the total latency."""
    latency = 0
    for way in window:
        for addr in way:
            latency += cache.access(domain, addr, addr, kind)
    return latency


def _touch_sets(cache: CacheState, domain: str, window: list[list[int]], n: int,
                kind: str = "read"):
    """Touch one line in each of the first n window sets. A single foreign
    line per set is enough to displace the receiver's contents there."""
    for addr in window[0][:n]:
        cache.access(domain, addr, addr, kind)


def _touch_lines(cache: CacheState, domain: str, window: list[list[int]], n: int,
                 kind: str = "read"):
    """Touch the first n distinct window lines in way-major order."""
    done = 0
    for way in window:
        for addr in way:
            if done >= n:
                return
            cache.access(domain, addr, addr, kind)
            done += 1


def default_alphabet(resource: str, symbols: int = 4) -> tuple:
    """Touched-set counts from idle to the full window, or branch directions."""
    if resource == "bhb":
        return ("not_taken", "taken")
    if symbols < 2:
        raise ValueError("need at least 2 symbols")
    return tuple(round(i * WINDOW_SETS / (symbols - 1)) for i in range(symbols))


def run_prime_probe(profile: PlatformProfile, spec: ChannelSpec,
                    **build_kwargs) -> SampleSet:
    """Receiver primes a window of the resource, the sender touches a number
    of entries encoding its symbol, and the receiver's re-probe latency is the
    output."""
    resource = spec.resource
    if resource not in PRIME_PROBE_RESOURCES:
        raise ValueError(f"unknown prime&probe resource {resource!r}")
    system = build_scenario(profile, spec.scenario, **build_kwargs)
    sim = system.sim
    rng = np.random.default_rng(spec.seed)

    if resource == "bhb":
        return _run_bhb(system, spec, rng)

    kind = "ifetch" if resource == "l1i" else "read"
    cache = sim.machine.cache(resource)
    alphabet = spec.input_alphabet or default_alphabet(resource)
    if max(alphabet) > WINDOW_SETS:
        raise ValueError("touched-set symbol exceeds the probe window")

    if cache.geometry.indexing == "virtual":
        recv_window = _virtual_window(sim, RECEIVER, cache, WINDOW_SETS)
        send_window = _virtual_window(sim, SENDER, cache, WINDOW_SETS)
    else:
        recv_colour = _first_colour(sim, RECEIVER)
        send_colour = _first_colour(sim, SENDER)
        recv_window = _physical_window(sim, RECEIVER, cache, recv_colour)
        send_window = _physical_window(sim, SENDER, cache, send_colour)

    total = spec.warmup + spec.iterations
    schedule = rng.integers(0, len(alphabet), size=total)
    noise = _noise(rng, spec.noise_sigma, total)

    inputs, outputs = [], []
    probe_fn = _predictor_probe if resource == "btb" else None
    _probe_window(sim, cache, recv_window, kind, probe_fn)
    for it in range(total):
        count = alphabet[schedule[it]]
        sim.domain_switch(SENDER)
        if resource == "btb":
            _touch_branches(sim, SENDER, send_window, count)
        else:
            _touch_sets(cache, SENDER, send_window, count, kind)
        sim.domain_switch(RECEIVER)
        latency = _probe_window(sim, cache, recv_window, kind, probe_fn)
        if it >= spec.warmup:
            inputs.append(str(count))
            outputs.append(latency + noise[it])
    return SampleSet(inputs, np.array(outputs),
                     metadata=_meta(spec, profile, alphabet=alphabet))


def _probe_window(sim, cache, window, kind, predictor_probe=None):
    if predictor_probe is not None:
        return predictor_probe(sim, RECEIVER, window)
    return _probe(cache, RECEIVER, window, kind)


def _predictor_probe(sim: Simulator, domain: str, window) -> int:
    latency = 0
    for way in window:
        for addr in way:
            latency += sim.machine.predictor.touch(domain, addr, taken=True).latency
    return latency


def _touch_branches(sim: Simulator, domain: str, window, n: int):
    for addr in window[0][:n]:
        sim.machine.predictor.touch(domain, addr, taken=True)


def _run_bhb(system: ScenarioSystem, spec: ChannelSpec,
             rng: np.random.Generator) -> SampleSet:
    """Direction-history channel: the sender trains one conditional branch
    taken or not-taken until the global history saturates; the receiver times
    one congruent taken branch."""
    sim = system.sim
    alphabet = spec.input_alphabet or ("not_taken", "taken")
    branch = sim.alloc_vpages(SENDER, 1)
    train = sim.machine.predictor.bhb.history_bits + 8
    total = spec.warmup + spec.iterations
    schedule = rng.integers(0, len(alphabet), size=total)
    noise = _noise(rng, spec.noise_sigma, total)
    inputs, outputs = [], []
    for it in range(total):
        symbol = alphabet[schedule[it]]
        sim.domain_switch(SENDER)
        for _ in range(train):
            sim.machine.predictor.touch(SENDER, branch, taken=(symbol == "taken"))
        sim.domain_switch(RECEIVER)
        res = sim.machine.predictor.touch(RECEIVER, branch, taken=True)
        if it >= spec.warmup:
            inputs.append(str(symbol))
            outputs.append(res.latency + noise[it])
    return SampleSet(inputs, np.array(outputs),
                     metadata=_meta(spec, system.profile, alphabet=alphabet))


def _first_colour(sim: Simulator, domain: str) -> int | None:
    colours = sim.domains[domain].colours
    if colours:
        return min(colours)
    # uncoloured scenarios probe the boot image's colour so the kernel
    # footprint lands inside the window
    return 0


def run_kernel_channel(profile: PlatformProfile, spec: ChannelSpec,
                       **build_kwargs) -> SampleSet:
    """Kernel-image channel: the sender encodes symbols as system calls with
    distinct kernel footprints while the receiver prime&probes the partitioned
    cache and records its miss count.

    The receiver's probe buffer is loaded through the full hierarchy (its
    size matches the L1, so kernel lines cannot hide there), and the output is
    the number of probe lines missing from the partitioned cache."""
    system = build_scenario(profile, spec.scenario, **build_kwargs)
    sim = system.sim
    alphabet = spec.input_alphabet or SYSCALLS
    bad = set(alphabet) - set(SYSCALLS)
    if bad:
        raise ValueError(f"unknown syscalls {sorted(bad)}")
    cache = sim.machine.cache(system.partitioned_cache)
    per = sim.profile.lines_per_page
    pairs = sim.alloc_buffer(RECEIVER, cache.geometry.ways,
                             _first_colour(sim, RECEIVER))

    def probe():
        misses = 0
        for va, pa in pairs:
            if not cache.lookup(va, pa):
                misses += 1
            sim.machine.data_access(RECEIVER, va, pa)
        return misses

    rng = np.random.default_rng(spec.seed)
    total = spec.warmup + spec.iterations
    schedule = rng.integers(0, len(alphabet), size=total)
    noise = _noise(rng, spec.noise_sigma, total)
    inputs, outputs = [], []
    probe()
    for it in range(total):
        symbol = alphabet[schedule[it]]
        sim.domain_switch(SENDER)
        for _ in range(3):
            sim.syscall(SENDER, symbol)
        sim.domain_switch(RECEIVER)
        misses = probe()
        if it >= spec.warmup:
            inputs.append(str(symbol))
            outputs.append(misses + noise[it])
    return SampleSet(inputs, np.array(outputs),
                     metadata=_meta(spec, profile, alphabet=alphabet,
                                    probe_lines=len(pairs), window_lines_per_frame=per))


def run_flush_latency_channel(profile: PlatformProfile, spec: ChannelSpec,
                              **build_kwargs) -> SampleSet:
    """Switch-latency channel: the sender dirties k cache lines, modulating
    the write-back portion of the on-core flush; the receiver observes its
    offline time (gap between its slices) and online time. Scenarios other
    than ``protected`` run the same flushing build with padding disabled."""
    pad = build_kwargs.pop("pad_cycles", "auto")
    if spec.scenario != "protected":
        pad = 0
    system = build_scenario(profile, "protected", pad_cycles=pad, **build_kwargs)
    sim = system.sim
    l1d = sim.machine.cache("l1d")
    lines = l1d.geometry.lines
    alphabet = spec.input_alphabet or tuple(round(i * lines / 3) for i in range(4))
    if max(alphabet) > lines:
        raise ValueError("dirty-line symbol exceeds L1-D capacity")
    window = _virtual_window(sim, SENDER, l1d, l1d.geometry.sets)
    slice_cycles = sim.domains[RECEIVER].timeslice_cycles
    rng = np.random.default_rng(spec.seed)
    total = spec.warmup + spec.iterations
    schedule = rng.integers(0, len(alphabet), size=total)
    noise = _noise(rng, spec.noise_sigma, 2 * total)
    inputs, offline, online = [], [], []
    for it in range(total):
        k = alphabet[schedule[it]]
        sim.domain_switch(SENDER)
        _touch_lines(l1d, SENDER, window, k, kind="write")
        trace_in = sim.domain_switch(RECEIVER)
        if it >= spec.warmup:
            inputs.append(str(k))
            offline.append(slice_cycles + trace_in.total_elapsed + noise[2 * it])
            online.append(slice_cycles - trace_in.total_elapsed + noise[2 * it + 1])
    return SampleSet(inputs, np.array(offline),
                     metadata=_meta(spec, profile, alphabet=alphabet,
                                    padded=sim.cfg.pad_cycles > 0),
                     extra={"online": np.array(online)})


def run_interrupt_channel(profile: PlatformProfile, spec: ChannelSpec,
                          **build_kwargs) -> SampleSet:
    """Interrupt channel: the sender either arms a periodic device interrupt
    it owns ("yes") or stays quiet ("no"); the receiver records the lengths of
    its uninterrupted execution intervals. Once the interrupt fires it stays
    masked until the sender acknowledges it, so a slice is cut at most once."""
    system = build_scenario(profile, spec.scenario, **build_kwargs)
    sim = system.sim
    alphabet = spec.input_alphabet or ("no", "yes")
    if set(alphabet) - {"no", "yes"}:
        raise ValueError("interrupt channel alphabet is {no, yes}")
    irq = 1
    sim.irqs.ensure(irq)
    if spec.scenario == "protected":
        sim.set_irq_owner(irq, sim.domains[SENDER].kernel_image)
    slice_cycles = sim.domains[RECEIVER].timeslice_cycles
    period = slice_cycles // 10
    handler = sim.kparams.irq_handler_cycles
    rng = np.random.default_rng(spec.seed)
    total = spec.warmup + spec.iterations
    schedule = rng.integers(0, len(alphabet), size=total)
    phases = rng.uniform(0.0, period, size=total)
    noise = _noise(rng, spec.noise_sigma, 2 * total)
    inputs, outputs = [], []

    def record(it, value, j=0):
        if it >= spec.warmup:
            inputs.append(str(alphabet[schedule[it]]))
            outputs.append(value + noise[2 * it + j])

    for it in range(total):
        armed = alphabet[schedule[it]] == "yes"
        sim.domain_switch(SENDER)
        trace_in = sim.domain_switch(RECEIVER)
        base = slice_cycles - trace_in.total_elapsed
        fires = armed and irq in sim.irqs.unmasked()
        if fires:
            offset = phases[it]
            sim.irqs.ensure(irq).masked = True  # pending until sender acks
            record(it, offset)
            record(it, base - offset - handler, j=1)
        else:
            record(it, base)
        if armed and spec.scenario != "protected":
            sim.irqs.ensure(irq).masked = False  # sender acks in its next slice
    return SampleSet(inputs, np.array(outputs),
                     metadata=_meta(spec, profile, alphabet=alphabet,
                                    slice_cycles=slice_cycles, period=period))


@dataclass
class SideChannelResult:
    """Cross-core spy trace and the key recovered from it."""

    trace: np.ndarray  # spy sets x quanta probe latencies
    spy_sets: list
    true_key: np.ndarray
    recovered_key: np.ndarray
    accuracy: float
    hot_set: int | None
    metadata: dict

    def trace_to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["set"] + [f"q{t}" for t in range(self.trace.shape[1])])
            for s, row in zip(self.spy_sets, self.trace):
                w.writerow([s] + [int(v) for v in row])


GAP_ZERO = 2  # quanta between square touches encoding a 0 bit
GAP_ONE = 4   # and a 1 bit


def run_llc_side_channel(profile: PlatformProfile, spec: ChannelSpec,
                         key_bits: int = 64, key=None,
                         **build_kwargs) -> SideChannelResult:
    """Cross-core side channel through the shared last-level cache.

    The victim mimics an exponentiation loop: it touches one fixed "square"
    line and spaces consecutive touches by a short gap for a 0 bit and a long
    gap for a 1 bit. The spy, on another core, primes every set it can reach
    and re-probes each scheduling quantum; intervals between hot quanta on the
    hottest set decode the key. With disjoint colours the victim's set is
    outside the spy's reach and recovery degrades to guessing.
    """
    system = build_scenario(profile, spec.scenario, **build_kwargs)
    sim = system.sim
    llc_name = "llc" if "llc" in sim.machine.caches else system.partitioned_cache
    llc = sim.machine.cache(llc_name)
    rng = np.random.default_rng(spec.seed)
    key = rng.integers(0, 2, size=key_bits) if key is None \
        else np.asarray(key, dtype=int)
    key_bits = len(key)

    spy_lines = _spy_coverage(sim, RECEIVER, llc)
    spy_sets = sorted(spy_lines)
    victim_pairs = sim.alloc_buffer(SENDER, 1)
    square_addr = victim_pairs[0][1]

    # victim schedule: touch quanta spaced by the per-bit gaps, plus one
    # terminator touch so every bit has a decodable interval
    touch_quanta = [0]
    for bit in key:
        touch_quanta.append(touch_quanta[-1] + (GAP_ONE if bit else GAP_ZERO))
    quanta = touch_quanta[-1] + 2

    baseline = llc.geometry.ways * llc.params.hit_cycles
    trace = np.full((len(spy_sets), quanta), float(baseline))
    row_of = {s: i for i, s in enumerate(spy_sets)}
    llc.probe_sets(RECEIVER, spy_lines)
    prev_mod = {s: llc.mod_count[s] for s in spy_sets}
    touches = set(touch_quanta)
    for q in range(quanta):
        if q in touches:
            llc.access(SENDER, square_addr, square_addr)
        changed = [s for s in spy_sets if llc.mod_count[s] != prev_mod[s]]
        if changed:
            results = llc.probe_sets(RECEIVER, {s: spy_lines[s] for s in changed})
            for s, (lat, _) in results.items():
                trace[row_of[s], q] = lat
                prev_mod[s] = llc.mod_count[s]

    recovered, hot_set = _decode_trace(trace, spy_sets, baseline, key_bits)
    accuracy = float(np.mean(recovered == key))
    return SideChannelResult(trace, spy_sets, key, recovered, accuracy, hot_set,
                             _meta(spec, profile, key_bits=key_bits,
                                   gap_zero=GAP_ZERO, gap_one=GAP_ONE))


def _spy_coverage(sim: Simulator, domain: str, llc: CacheState) -> dict:
    """Prime-buffer lines grouped by set: `ways` frames for every last-level
    colour reachable from the domain's pool (all colours when uncoloured)."""
    geo = llc.geometry
    page = sim.profile.page_bytes
    per = sim.profile.lines_per_page
    llc_colours = geo.sets // per
    coloured = bool(sim.domains[domain].colours)
    if coloured:
        part_geo = sim.profile.geometries[sim.profile.partitioned_cache]
        part_colours = part_geo.size_bytes // (part_geo.ways * page)
        reachable = {c for c in range(llc_colours)
                     if c % part_colours in sim.domains[domain].colours}
    else:
        reachable = set(range(llc_colours))
    buckets: dict[int, list[int]] = {c: [] for c in reachable}
    needed = geo.ways * len(reachable)
    allocated = 0
    while allocated < needed:
        frames = sim.partition.allocate_many(domain if coloured else None, 1)
        f = frames[0]
        c = (f.phys_addr // page) % llc_colours
        if len(buckets.get(c, [])) < geo.ways:
            buckets[c].append(f.phys_addr)
            allocated += 1
    lines: dict[int, list[int]] = {}
    for c, frame_addrs in buckets.items():
        for slot in range(per):
            set_idx = c * per + slot
            lines[set_idx] = [fa + slot * sim.profile.line_bytes for fa in frame_addrs]
    return lines


def _decode_trace(trace: np.ndarray, spy_sets: list, baseline: float,
                  key_bits: int) -> tuple[np.ndarray, int | None]:
    hot = trace > baseline
    counts = hot.sum(axis=1)
    if counts.max(initial=0) < key_bits + 1:
        # nothing observable: report a flat all-zeros guess
        return np.zeros(key_bits, dtype=int), None
    row = int(np.argmax(counts))
    events = np.flatnonzero(hot[row])
    gaps = np.diff(events)[:key_bits]
    threshold = (GAP_ZERO + GAP_ONE) / 2
    bits = (gaps > threshold).astype(int)
    if len(bits) < key_bits:
        bits = np.concatenate([bits, np.zeros(key_bits - len(bits), dtype=int)])
    return bits, spy_sets[row]


def _meta(spec: ChannelSpec, profile: PlatformProfile, **kw) -> dict:
    meta = {
        "channel": spec.channel_kind,
        "resource": spec.resource,
        "scenario": spec.scenario,
        "seed": spec.seed,
        "iterations": spec.iterations,
        "warmup": spec.warmup,
        "noise_sigma": spec.noise_sigma,
        "profile": profile.name,
    }
    for k, v in kw.items():
        meta[k] = list(v) if isinstance(v, (tuple, set)) else v
    return meta


RUNNERS = {
    "kernel": run_kernel_channel,
    "flush_latency": run_flush_latency_channel,
    "interrupt": run_interrupt_channel,
}


def run_channel(profile: PlatformProfile, spec: ChannelSpec, **build_kwargs) -> SampleSet:
    """Dispatch a sample-producing channel (the cross-core side channel has
    its own entry point and result type)."""
    if spec.channel_kind in PRIME_PROBE_RESOURCES:
        pp = ChannelSpec(spec.channel_kind, spec.scenario, spec.iterations,
                         spec.seed, spec.channel_kind, spec.input_alphabet,
                         spec.noise_sigma, spec.warmup)
        return run_prime_probe(profile, pp, **build_kwargs)
    if spec.channel_kind in RUNNERS:
        return RUNNERS[spec.channel_kind](profile, spec, **build_kwargs)
    raise ValueError(f"unknown channel kind {spec.channel_kind!r}")
