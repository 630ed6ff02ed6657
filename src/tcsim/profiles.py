"""Built-in hardware platform profiles.

Geometries follow the published datasheet shapes of the two reference
machines (an 8-way/16-way x86 desktop part and a Cortex-A9 class SoC); all
cycle costs are simulator defaults chosen for plausible relative magnitudes,
not hardware claims. Exactly one cache per profile is the colouring target:
the physically-indexed private L2, which on the x86 profile implicitly
partitions the inclusive last-level cache as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from tcsim.microarch import CacheGeometry, LatencyModel, LatencyParams, Machine

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class PlatformProfile:
    """One simulated platform: cache/TLB/predictor geometries, page size,
    latency model, and the designated partitioned cache."""

    name: str
    page_bytes: int
    geometries: dict[str, CacheGeometry]
    latency: LatencyModel
    bhb_history_bits: int
    partitioned_cache: str

    def __post_init__(self):
        if self.partitioned_cache not in self.geometries:
            raise ValueError("partitioned_cache must name a known geometry")
        if self.geometries[self.partitioned_cache].indexing != "physical":
            raise ValueError("partitioned cache must be physically indexed")
        for name, geo in self.geometries.items():
            if name in ("l2", "llc") and geo.indexing != "physical":
                raise ValueError(f"{name} must be physically indexed")

    def build_machine(self) -> Machine:
        return Machine(self.geometries, self.latency, self.bhb_history_bits)

    @property
    def line_bytes(self) -> int:
        return self.geometries["l1d"].line_bytes

    @property
    def lines_per_page(self) -> int:
        return self.page_bytes // self.line_bytes


def _haswell() -> PlatformProfile:
    line = 64
    geometries = {
        "l1d": CacheGeometry(32 * KIB, 8, line, "virtual"),
        "l1i": CacheGeometry(32 * KIB, 8, line, "virtual"),
        "l2": CacheGeometry(256 * KIB, 8, line, "physical"),
        "llc": CacheGeometry(8 * MIB, 16, line, "physical"),
        # unified second-level TLB: 1024 entries, 8-way; one entry per page
        "tlb": CacheGeometry(1024 * 4096, 8, 4096, "virtual"),
        # branch target buffer: 4096 slots, 8-way, one slot per 4-byte target
        "btb": CacheGeometry(4096 * 4, 8, 4, "virtual"),
    }
    latency = LatencyModel(
        default=LatencyParams(4, 12, 6, 256),
        overrides={
            "l2": LatencyParams(12, 24, 8, 2048),
            "llc": LatencyParams(34, 42, 10, 65536),
            "tlb": LatencyParams(1, 36, 0, 128),
            "btb": LatencyParams(1, 10, 0, 128),
            "bhb": LatencyParams(0, 1, 0, 64),
        },
        memory_cycles=200,
        mispredict_cycles=20,
    )
    return PlatformProfile("haswell", 4096, geometries, latency, 12, "l2")


def _sabre() -> PlatformProfile:
    line = 32
    geometries = {
        "l1d": CacheGeometry(32 * KIB, 4, line, "virtual"),
        "l1i": CacheGeometry(32 * KIB, 4, line, "virtual"),
        # the 1 MiB L2 is the last-level cache on this platform
        "l2": CacheGeometry(1 * MIB, 16, line, "physical"),
        "tlb": CacheGeometry(128 * 4096, 2, 4096, "virtual"),
        "btb": CacheGeometry(512 * 4, 2, 4, "virtual"),
    }
    latency = LatencyModel(
        default=LatencyParams(4, 14, 6, 320),
        overrides={
            "l2": LatencyParams(16, 30, 8, 32768),
            "tlb": LatencyParams(1, 30, 0, 64),
            "btb": LatencyParams(1, 8, 0, 32),
            "bhb": LatencyParams(0, 1, 0, 32),
        },
        memory_cycles=180,
        mispredict_cycles=16,
    )
    return PlatformProfile("sabre", 4096, geometries, latency, 8, "l2")


BUILTIN_PROFILES = {"haswell": _haswell(), "sabre": _sabre()}


def get_profile(name: str) -> PlatformProfile:
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown profile {name!r}; known: {sorted(BUILTIN_PROFILES)}")
