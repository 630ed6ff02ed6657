"""Scenario construction: raw, full_flush and protected systems.

raw        - one shared kernel image, uncoloured memory, no flush, no pad,
             interrupts unpartitioned.
full_flush - per-domain kernel clones in uncoloured memory so that every
             domain switch is a kernel switch, and the switch flushes every
             modelled resource including the physically-indexed caches; no
             padding, no prefetch.
protected  - per-domain clones in disjointly coloured memory, on-core flush
             (L1s, TLB, predictors) on kernel switch, shared-data prefetch,
             switch latency padded to a computed worst case plus a margin,
             interrupts partitioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from tcsim.colouring import build_frames, partition_pool
from tcsim.kernel import KernelParams, Simulator, SwitchConfig
from tcsim.microarch import colour_count
from tcsim.profiles import PlatformProfile

SCENARIOS = ("raw", "full_flush", "protected")

ON_CORE_RESOURCES = ("l1d", "l1i", "tlb", "btb", "bhb")

SENDER = "d0"
RECEIVER = "d1"


@dataclass
class ScenarioSystem:
    sim: Simulator
    scenario: str
    profile: PlatformProfile
    sender: str = SENDER
    receiver: str = RECEIVER

    @property
    def partitioned_cache(self) -> str:
        return self.profile.partitioned_cache


def split_colours(total: int, split: tuple[int, int]) -> tuple[set[int], set[int]]:
    """Contiguous colour ranges per domain. The larger share rounds down so
    both domains keep at least one colour."""
    a, b = split
    if a + b != 100 or min(a, b) <= 0:
        raise ValueError("colour split must be two positive shares summing to 100")
    first = math.floor(total * a / 100) if a >= b else total - math.floor(total * b / 100)
    first = min(max(first, 1), total - 1)
    return set(range(first)), set(range(first, total))


def pad_for(sim: Simulator, margin_pct: float) -> tuple[int, int]:
    """Auto pad: worst-case natural switch cost plus an interrupt-race margin."""
    worst = sim.worst_case_switch_cost()
    margin = math.ceil(worst * margin_pct / 100)
    return worst + margin, margin


def build_scenario(profile: PlatformProfile, scenario: str, *,
                   frames: int = 4096, colour_split: tuple[int, int] = (50, 50),
                   timeslice_cycles: int = 200_000, pad_cycles="auto",
                   irq_margin_pct: float = 5.0, kparams: KernelParams = KernelParams(),
                   flush_targets=None, partition_irqs=None,
                   irq_owners: tuple = ()) -> ScenarioSystem:
    """Build a two-domain system for one scenario. ``flush_targets``,
    ``partition_irqs`` and ``pad_cycles`` can override the scenario defaults
    (the flush-latency channel, for instance, runs the protected build with
    padding disabled)."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    geometry = profile.geometries[profile.partitioned_cache]
    colours = colour_count(geometry, profile.page_bytes)
    frame_list = build_frames(frames, geometry, profile.page_bytes)

    if scenario == "protected":
        c0, c1 = split_colours(colours, colour_split)
        assignment = {SENDER: c0, RECEIVER: c1}
    else:
        c0, c1 = set(), set()
        assignment = {SENDER: set(), RECEIVER: set()}

    boot = kparams.image_frames + 1
    partition = partition_pool(frame_list[boot:], assignment)
    # boot memory is uncoloured reserve regardless of scenario
    for f in frame_list[:boot]:
        partition.reserve.setdefault(f.colour, []).insert(0, f)

    if scenario == "raw":
        cfg = SwitchConfig()
    elif scenario == "full_flush":
        all_targets = tuple(n for n in ("l1d", "l1i", "tlb", "btb", "bhb", "l2", "llc")
                            if n in profile.geometries or n == "bhb")
        cfg = SwitchConfig(flush_targets=all_targets)
    else:
        cfg = SwitchConfig(flush_targets=ON_CORE_RESOURCES, prefetch_shared=True,
                           partition_irqs=True)
    if flush_targets is not None:
        cfg = replace(cfg, flush_targets=tuple(flush_targets))
    if partition_irqs is not None:
        cfg = replace(cfg, partition_irqs=partition_irqs)

    machine = profile.build_machine()
    sim = Simulator(profile, machine, partition, cfg, kparams, timeslice_cycles)
    sim.add_domain(SENDER, frozenset(c0))
    sim.add_domain(RECEIVER, frozenset(c1))

    if scenario in ("full_flush", "protected"):
        for dom in (SENDER, RECEIVER):
            sim.clone_kernel(sim.initial_image.id, dom)

    for irq, dom in irq_owners:
        sim.set_irq_owner(irq, sim.domains[dom].kernel_image)

    if scenario == "protected" or (pad_cycles != "auto" and pad_cycles):
        if pad_cycles == "auto":
            pad, margin = pad_for(sim, irq_margin_pct)
        else:
            pad = int(pad_cycles)
            margin = math.ceil(pad * irq_margin_pct / (100 + irq_margin_pct))
        if pad > 0:
            sim.cfg = replace(sim.cfg, pad_cycles=pad, irq_margin_cycles=margin)
    return ScenarioSystem(sim, scenario, profile)
