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
from dataclasses import dataclass

from tcsim.colouring import ColourPartition
from tcsim.config import SCENARIOS, RunConfig
from tcsim.kernel import KernelParams, Simulator, SwitchConfig, worst_case_switch_cost
from tcsim.microarch import colour_count
from tcsim.profiles import PlatformProfile

ON_CORE_RESOURCES = ("l1d", "l1i", "tlb", "btb", "bhb")

SENDER = "d0"
RECEIVER = "d1"


@dataclass
class ScenarioSystem:
    """A built two-domain system and the scenario it was built as; its
    platform profile, with the partitioned cache, is ``sim.profile``."""

    sim: Simulator
    scenario: str


def split_colours(total: int, split: tuple[int, int]) -> tuple[set[int], set[int]]:
    """Contiguous colour ranges per domain. The larger share rounds down so
    both domains keep at least one colour."""
    a, b = split
    if a + b != 100 or min(a, b) <= 0:
        raise ValueError("colour split must be two positive shares summing to 100")
    first = math.floor(total * a / 100) if a >= b else total - math.floor(total * b / 100)
    first = min(max(first, 1), total - 1)
    return set(range(first)), set(range(first, total))


def pad_for(worst: int, margin_pct: float) -> int:
    """Auto pad: the worst-case natural switch cost ``worst`` plus an
    interrupt-race margin of ``margin_pct`` percent."""
    return worst + math.ceil(worst * margin_pct / 100)


def build_scenario(profile: PlatformProfile, scenario: str, *,
                   frames: int = RunConfig.frames,
                   colour_split: tuple[int, int] = RunConfig.colour_split,
                   timeslice_cycles: int = RunConfig.timeslice_cycles,
                   pad_cycles=RunConfig.pad_cycles,
                   irq_margin_pct: float = RunConfig.irq_margin_pct,
                   irq_owners: tuple = RunConfig.irq_owners) -> ScenarioSystem:
    """Build a two-domain system for one scenario, its switch configuration
    final before the simulator is built. ``pad_cycles`` sets the padding:
    ``"auto"`` pads protected builds only, to the worst case
    (``worst_case_switch_cost``) plus ``irq_margin_pct``; a number pads any
    build to it, and 0 disables padding (the flush-latency channel runs the
    protected build that way)."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    colours = colour_count(profile.geometries[profile.partitioned_cache], profile.page_bytes)

    protected = scenario == "protected"
    shares = split_colours(colours, colour_split) if protected else (set(), set())
    assignment = dict(zip((SENDER, RECEIVER), shares))

    kparams = KernelParams()
    # boot memory is uncoloured reserve regardless of scenario
    partition = ColourPartition(frames, colours, kparams.image_frames + 1, assignment)

    machine = profile.build_machine()
    flush_targets = {"raw": (), "full_flush": tuple(machine.resource_ids()),
                     "protected": ON_CORE_RESOURCES}[scenario]
    if pad_cycles != "auto":
        pad = int(pad_cycles)
    elif protected:
        pad = pad_for(worst_case_switch_cost(machine, kparams, flush_targets), irq_margin_pct)
    else:
        pad = 0
    cfg = SwitchConfig(pad, flush_targets, prefetch_shared=protected, partition_irqs=protected)

    sim = Simulator(profile, machine, partition, cfg, kparams, timeslice_cycles)
    for dom in assignment:
        sim.add_domain(dom)

    if scenario in ("full_flush", "protected"):
        for dom in assignment:
            sim.clone_kernel(sim.initial_image.id, dom)

    for irq, dom in irq_owners:
        sim.set_irq_owner(irq, sim.domains[dom].kernel_image)
    return ScenarioSystem(sim, scenario)
