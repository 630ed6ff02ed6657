"""The model microkernel: cloned kernel images, interrupt ownership, and the
padded domain-switch sequence.

A kernel image owns code, data and stack frames plus a set of interrupts;
every image shares one block of global kernel data (scheduler queues, IRQ
table, current pointers, the lock word), each datum a cache-line-sized region
at a fixed physical address. Kernel code paths touch those regions through
the real cache hierarchy, so their cost depends on cache state exactly like
user accesses do.

Switching domains on a preemption tick runs twelve steps; the ones marked
kernel-switch-only run only when the incoming domain is served by a different
image: (1) lock, (2) tick processing, (3*) mask previous kernel's IRQs,
(4*) stack switch, (5) thread/image switch, (6) unlock, (7*) unmask new
kernel's IRQs, (8*) flush configured resources, (9*) prefetch shared data,
(10*) spin until the configured pad has elapsed since the tick, (11*)
reprogram the timer, (12) return to user mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from tcsim.colouring import ColourPartition, Frame, PoolExhausted
from tcsim.microarch import Machine
from tcsim.profiles import PlatformProfile


class InvalidImage(KeyError):
    """Operation referenced a kernel image that does not exist."""


class InvalidSource(InvalidImage):
    """Clone source image does not exist."""


class CannotDestroyInitial(RuntimeError):
    """The boot kernel image must survive so a runnable kernel always exists."""


class PadOverrun(RuntimeError):
    """The natural switch cost exceeded the configured pad; the configuration
    promised a worst-case latency it cannot keep, so this surfaces instead of
    being silently absorbed."""


SHARED_REGION_NAMES = (
    "sched_queues",
    "sched_bitmap",
    "current_decision",
    "irq_state_table",
    "current_irq",
    "asid_table",
    "current_thread",
    "current_kernel",
    "idle_thread",
    "fpu_owner",
    "lock_word",
)


@dataclass
class SharedKernelData:
    """The only kernel state common to all images: one cache line per region,
    at addresses fixed at boot."""

    regions: dict[str, int]  # name -> physical line address
    frames: list[Frame]

    @classmethod
    def at_boot(cls, frames: list[Frame], line_bytes: int,
                page_bytes: int) -> "SharedKernelData":
        per_frame = page_bytes // line_bytes
        if len(frames) * per_frame < len(SHARED_REGION_NAMES):
            raise ValueError("not enough boot frames for shared kernel data")
        addrs = {}
        for i, name in enumerate(SHARED_REGION_NAMES):
            frame = frames[i // per_frame]
            addrs[name] = frame.phys_addr + (i % per_frame) * line_bytes
        return cls(addrs, list(frames))


@dataclass
class KernelImage:
    id: int
    owner: str | None  # domain id; None for the boot image
    code_lines: list[int]
    data_lines: list[int]
    stack_lines: list[int]
    frames: list[Frame]
    shared: SharedKernelData
    owned_irqs: set[int] = field(default_factory=set)
    is_initial: bool = False


@dataclass
class Thread:
    name: str
    domain: str
    suspended: bool = False


@dataclass
class Domain:
    id: str
    colours: frozenset
    kernel_image: int
    timeslice_cycles: int
    threads: list[Thread] = field(default_factory=list)
    next_vpage: int = 0x1000  # per-domain virtual bump allocator


@dataclass(frozen=True)
class SwitchConfig:
    """Domain-switch behaviour. ``pad_cycles`` of zero disables padding."""

    pad_cycles: int = 0
    irq_margin_cycles: int = 0
    flush_targets: tuple = ()
    prefetch_shared: bool = False
    partition_irqs: bool = False

    def __post_init__(self):
        if self.pad_cycles < 0 or self.irq_margin_cycles < 0:
            raise ValueError("pad and margin must be non-negative")


@dataclass(frozen=True)
class KernelParams:
    """Kernel sizing and the fixed (non-memory) cost of each switch step."""

    code_frames: int = 40
    data_frames: int = 10
    stack_frames: int = 1
    lock_cycles: int = 30
    tick_cycles: int = 50
    mask_cycles: int = 25
    stack_switch_cycles: int = 400
    thread_switch_cycles: int = 60
    unlock_cycles: int = 20
    unmask_cycles: int = 25
    timer_cycles: int = 50
    return_cycles: int = 30
    irq_handler_cycles: int = 2000
    # code lines touched per syscall; distinct sizes are what a cache
    # observer can distinguish
    syscall_footprints: dict = field(
        default_factory=lambda: {"Signal": 56, "SetPriority": 48, "Poll": 16, "Idle": 0})

    @property
    def image_frames(self) -> int:
        return self.code_frames + self.data_frames + self.stack_frames


@dataclass
class StepCost:
    number: int
    name: str
    cycles: int


@dataclass
class SwitchTrace:
    steps: list[StepCost]
    kernel_switch: bool
    natural_cycles: int  # steps 1-9, before any padding
    pad_cycles: int
    total_elapsed: int

    def step_numbers(self) -> list[int]:
        return [s.number for s in self.steps]


@dataclass
class IrqState:
    owner_image: int | None = None
    masked: bool = True


class IrqController:
    """Mask state and image ownership of device interrupts. The preemption
    timer is implicit and always deliverable."""

    def __init__(self, partition_irqs: bool):
        self.partition_irqs = partition_irqs
        self.irqs: dict[int, IrqState] = {}

    def ensure(self, irq: int) -> IrqState:
        if irq not in self.irqs:
            # without partitioning, unowned device IRQs are live by default
            self.irqs[irq] = IrqState(masked=self.partition_irqs)
        return self.irqs[irq]

    def mask_owned(self, image: KernelImage):
        for irq in image.owned_irqs:
            self.ensure(irq).masked = True

    def unmask_owned(self, image: KernelImage):
        for irq in image.owned_irqs:
            self.ensure(irq).masked = False

    def unmasked(self) -> set[int]:
        return {irq for irq, st in self.irqs.items() if not st.masked}


class Simulator:
    """Single-core deterministic simulation state: one machine, one colour
    partition, kernel images, domains and a cycle clock."""

    def __init__(self, profile: PlatformProfile, machine: Machine,
                 partition: ColourPartition, switch_cfg: SwitchConfig,
                 kparams: KernelParams = KernelParams(),
                 timeslice_cycles: int = 200_000):
        self.profile = profile
        self.machine = machine
        self.partition = partition
        self.cfg = switch_cfg
        self.kparams = kparams
        self.timeslice_cycles = timeslice_cycles
        self.now = 0
        self.domains: dict[str, Domain] = {}
        self.images: dict[int, KernelImage] = {}
        self._next_image_id = 0
        self.irqs = IrqController(switch_cfg.partition_irqs)
        # IRQ-invariant checks made at every switch step when IRQs are
        # partitioned, and how many of them failed
        self.irq_checks = 0
        self.irq_violations = 0

        line = profile.line_bytes
        shared_frames = [partition.allocate_reserve() for _ in
                         range(math.ceil(len(SHARED_REGION_NAMES) * line / profile.page_bytes))]
        self.shared = SharedKernelData.at_boot(shared_frames, line, profile.page_bytes)
        self.initial_image = self._build_image(
            owner=None,
            frames=[partition.allocate_reserve() for _ in range(kparams.image_frames)],
            is_initial=True)
        self.current_domain: str | None = None

    # -- images ----------------------------------------------------------

    def _frame_lines(self, frames: list[Frame]) -> list[int]:
        line = self.profile.line_bytes
        per = self.profile.page_bytes // line
        return [f.phys_addr + i * line for f in frames for i in range(per)]

    def _build_image(self, owner, frames, is_initial=False) -> KernelImage:
        kp = self.kparams
        per = self.profile.page_bytes // self.profile.line_bytes
        code = frames[:kp.code_frames]
        data = frames[kp.code_frames:kp.code_frames + kp.data_frames]
        stack = frames[kp.code_frames + kp.data_frames:]
        image = KernelImage(
            id=self._next_image_id, owner=owner,
            code_lines=self._frame_lines(code),
            data_lines=self._frame_lines(data),
            stack_lines=self._frame_lines(stack),
            frames=list(frames), shared=self.shared, is_initial=is_initial)
        self._next_image_id += 1
        self.images[image.id] = image
        return image

    def clone_kernel(self, source_id: int, owner: str) -> int:
        """Copy the source image's code, read-only data and stack into frames
        from the owner's pool (reserve when the owner is uncoloured); the new
        image serves the owner's system calls from then on."""
        if source_id not in self.images:
            raise InvalidSource(f"no kernel image {source_id}")
        domain = self.domains[owner]
        n = self.kparams.image_frames
        coloured = bool(domain.colours)
        pool_size = self.partition.pool_size(owner) if coloured else \
            len(self.partition.reserve_frames())
        if pool_size < n:
            raise PoolExhausted(
                f"domain {owner!r} has {pool_size} frames, clone needs {n}")
        frames = self.partition.allocate_many(owner if coloured else None, n)
        image = self._build_image(owner, frames)
        domain.kernel_image = image.id
        return image.id

    def destroy_kernel(self, image_id: int):
        """Suspend the image's threads onto the initial kernel, return its
        frames to the pool they came from, and orphan its IRQs."""
        if image_id not in self.images:
            raise InvalidImage(f"no kernel image {image_id}")
        image = self.images[image_id]
        if image.is_initial:
            raise CannotDestroyInitial("the boot kernel image is undestroyable")
        for dom in self.domains.values():
            if dom.kernel_image == image_id:
                for t in dom.threads:
                    t.suspended = True
                dom.kernel_image = self.initial_image.id
        owner_dom = image.owner if image.owner is not None and \
            self.domains[image.owner].colours else None
        self.partition.release(owner_dom, image.frames)
        for irq in list(image.owned_irqs):
            st = self.irqs.ensure(irq)
            st.owner_image = None
            st.masked = self.irqs.partition_irqs
        image.owned_irqs.clear()
        del self.images[image_id]

    def set_irq_owner(self, irq: int, image_id: int):
        if image_id not in self.images:
            raise InvalidImage(f"no kernel image {image_id}")
        for img in self.images.values():
            img.owned_irqs.discard(irq)
        self.images[image_id].owned_irqs.add(irq)
        st = self.irqs.ensure(irq)
        st.owner_image = image_id
        st.masked = True if self.cfg.partition_irqs else st.masked

    # -- domains and memory ------------------------------------------------

    def add_domain(self, domain_id: str, colours=frozenset(),
                   timeslice_cycles: int | None = None) -> Domain:
        # widely separated virtual ranges keep distinct domains' frameless
        # mappings from sharing tags while preserving set congruence
        base_vpage = 0x1000 + len(self.domains) * (1 << 20)
        dom = Domain(domain_id, frozenset(colours), self.initial_image.id,
                     timeslice_cycles or self.timeslice_cycles,
                     threads=[Thread(f"{domain_id}.t0", domain_id)],
                     next_vpage=base_vpage)
        self.domains[domain_id] = dom
        if self.current_domain is None:
            self.current_domain = domain_id
        return dom

    def alloc_vpages(self, domain_id: str, n: int) -> int:
        """Reserve n virtual pages with no backing frames (for workloads that
        only exercise virtually-indexed resources). Returns the base vaddr."""
        dom = self.domains[domain_id]
        base = dom.next_vpage * self.profile.page_bytes
        dom.next_vpage += n
        return base

    def alloc_buffer(self, domain_id: str, n_frames: int,
                     colour: int | None = None) -> list[tuple[int, int]]:
        """Allocate frames for a workload buffer and map them at fresh virtual
        pages. Returns per-line (vaddr, paddr) pairs in frame order. Coloured
        domains draw from their pool, uncoloured ones from the reserve."""
        dom = self.domains[domain_id]
        coloured = bool(dom.colours)
        frames = self.partition.allocate_many(
            domain_id if coloured else None, n_frames, colour)
        line = self.profile.line_bytes
        per = self.profile.page_bytes // line
        pairs = []
        for f in frames:
            vbase = self.alloc_vpages(domain_id, 1)
            pairs.extend((vbase + i * line, f.phys_addr + i * line) for i in range(per))
        return pairs

    # -- kernel memory traffic ---------------------------------------------

    def _region_access(self, name: str, write: bool = False) -> int:
        addr = self.shared.regions[name]
        return self.machine.data_access("kernel", addr, addr, write)

    def current_image(self) -> KernelImage:
        return self.images[self.domains[self.current_domain].kernel_image]

    def syscall(self, domain_id: str, which: str) -> int:
        """Serve one system call for the current domain: touch that call's
        fixed code-line footprint in the serving image. Idle touches nothing."""
        if domain_id != self.current_domain:
            raise ValueError("syscalls are served for the current domain only")
        count = self.kparams.syscall_footprints[which]
        if count == 0:
            return 0
        image = self.images[self.domains[domain_id].kernel_image]
        tag = f"kernel:{image.id}"
        return sum(self.machine.data_access(tag, a, a) for a in image.code_lines[:count])

    # -- the domain switch ---------------------------------------------------

    def check_irq_invariant(self) -> bool:
        """Unmasked device IRQs must all belong to the current image."""
        owned = self.current_image().owned_irqs
        return self.irqs.unmasked() <= owned

    def domain_switch(self, next_domain: str) -> SwitchTrace:
        """Handle a preemption tick that schedules ``next_domain``."""
        kp = self.kparams
        prev_image = self.current_image()
        nxt = self.domains[next_domain]
        next_image = self.images[nxt.kernel_image]
        kernel_switch = prev_image.id != next_image.id
        steps: list[StepCost] = []

        def step(number, name, cycles):
            steps.append(StepCost(number, name, cycles))
            if self.cfg.partition_irqs:
                self.irq_checks += 1
                self.irq_violations += not self.check_irq_invariant()

        step(1, "lock", kp.lock_cycles + self._region_access("lock_word", write=True))
        step(2, "tick", kp.tick_cycles
             + self._region_access("sched_queues")
             + self._region_access("sched_bitmap")
             + self._region_access("current_decision", write=True))
        if kernel_switch:
            cost = kp.mask_cycles + self._region_access("irq_state_table", write=True) \
                + self._region_access("current_irq")
            self.irqs.mask_owned(prev_image)
            step(3, "mask_prev_irqs", cost)
            step(4, "stack_switch", kp.stack_switch_cycles)
        cost = kp.thread_switch_cycles \
            + self._region_access("current_thread", write=True) \
            + self._region_access("current_kernel", write=True) \
            + self._region_access("asid_table") \
            + self._region_access("idle_thread") \
            + self._region_access("fpu_owner")
        self.current_domain = next_domain
        step(5, "thread_switch", cost)
        step(6, "unlock", kp.unlock_cycles + self._region_access("lock_word", write=True))
        if kernel_switch:
            self.irqs.unmask_owned(next_image)
            step(7, "unmask_next_irqs",
                 kp.unmask_cycles + self._region_access("irq_state_table", write=True))
            flush_cost = sum(self.machine.flush(r) for r in self.cfg.flush_targets)
            step(8, "flush", flush_cost)
            if self.cfg.prefetch_shared:
                step(9, "prefetch_shared",
                     sum(self._region_access(n) for n in SHARED_REGION_NAMES))
        natural = sum(s.cycles for s in steps)
        if kernel_switch:
            if self.cfg.pad_cycles > 0:
                if natural > self.cfg.pad_cycles:
                    raise PadOverrun(
                        f"switch cost {natural} exceeds pad {self.cfg.pad_cycles}")
                step(10, "pad", self.cfg.pad_cycles - natural)
            step(11, "reprogram_timer", kp.timer_cycles)
        step(12, "return", kp.return_cycles)
        total = sum(s.cycles for s in steps)
        self.now += total
        return SwitchTrace(steps, kernel_switch, natural, self.cfg.pad_cycles, total)

    def worst_case_switch_cost(self) -> int:
        """Conservative bound on the natural (pre-pad) cost of one kernel
        switch: every step's fixed cost, every shared region missing all the
        way to memory twice over, and every flush target fully dirty."""
        kp = self.kparams
        worst_access = self.machine.worst_case_data_access()
        fixed = (kp.lock_cycles + kp.tick_cycles + kp.mask_cycles
                 + kp.stack_switch_cycles + kp.thread_switch_cycles
                 + kp.unlock_cycles + kp.unmask_cycles)
        region_accesses = 2 * len(SHARED_REGION_NAMES) + 2
        flush_worst = sum(self.machine.flush_worst_case(r)
                          for r in self.cfg.flush_targets)
        return fixed + region_accesses * worst_access + flush_worst
