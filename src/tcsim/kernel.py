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
from itertools import islice

from tcsim.colouring import ColourPartition
from tcsim.config import PadOverrun, RunConfig
from tcsim.microarch import Machine
from tcsim.profiles import PlatformProfile


class InvalidImage(KeyError):
    """Operation referenced a kernel image that does not exist."""


class InvalidSource(InvalidImage):
    """Clone source image does not exist."""


class CannotDestroyInitial(RuntimeError):
    """The boot kernel image must survive so a runnable kernel always exists."""


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
class KernelImage:
    """One kernel image. ``syscall_lines`` is all that ``Simulator.syscall``
    reads of its code: the physical addresses of its first code lines, in
    frame order, as many as the largest syscall footprint touches."""

    id: int
    owner: str | None  # domain id; None for the boot image
    syscall_lines: list[int]
    frames: list[int]  # page numbers: code, then data, then stack
    owned_irqs: set[int] = field(default_factory=set)


@dataclass
class Domain:
    kernel_image: int
    next_vpage: int = 0x1000  # per-domain virtual bump allocator
    suspended: bool = False  # its kernel image was destroyed under it


@dataclass(frozen=True)
class SwitchConfig:
    """Domain-switch behaviour. ``pad_cycles`` of zero disables padding."""

    pad_cycles: int = 0
    flush_targets: tuple = ()
    prefetch_shared: bool = False
    partition_irqs: bool = False

    def __post_init__(self):
        if self.pad_cycles < 0:
            raise ValueError("pad_cycles must be non-negative")


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
    total_elapsed: int


class Simulator:
    """Single-core deterministic simulation state: one machine, one colour
    partition, kernel images and domains."""

    def __init__(self, profile: PlatformProfile, machine: Machine,
                 partition: ColourPartition, switch_cfg: SwitchConfig,
                 kparams: KernelParams = KernelParams(),
                 timeslice_cycles: int = RunConfig.timeslice_cycles):
        self.profile = profile
        self.machine = machine
        self.partition = partition
        self.cfg = switch_cfg
        self.kparams = kparams
        self.timeslice_cycles = timeslice_cycles
        self.domains: dict[str, Domain] = {}
        self.images: dict[int, KernelImage] = {}
        self._next_image_id = 0
        # device IRQ mask state (images own IRQs; the timer is implicit and
        # always deliverable); ``irq_fires`` reads it
        self.irq_masked: dict[int, bool] = {}
        # IRQ-invariant checks made at every switch step when IRQs are
        # partitioned, and how many of them failed
        self.irq_checks = 0
        self.irq_violations = 0

        # each shared region's physical line address: one line per region,
        # packed into boot frames in SHARED_REGION_NAMES order
        line, page = profile.line_bytes, profile.page_bytes
        frames = partition.allocate(None, math.ceil(len(SHARED_REGION_NAMES) * line / page))
        self.shared_regions = {
            name: frames[i * line // page] * page + (i * line) % page
            for i, name in enumerate(SHARED_REGION_NAMES)}
        self.initial_image = self._build_image(
            owner=None, frames=partition.allocate(None, kparams.image_frames))
        self.current_domain: str | None = None

    # -- images ----------------------------------------------------------

    def _build_image(self, owner, frames) -> KernelImage:
        page, line, kp = self.profile.page_bytes, self.profile.line_bytes, self.kparams
        code = (f * page + i for f in frames[:kp.code_frames] for i in range(0, page, line))
        touched = max(kp.syscall_footprints.values(), default=0)
        image = KernelImage(id=self._next_image_id, owner=owner,
                            syscall_lines=list(islice(code, touched)), frames=list(frames))
        self._next_image_id += 1
        self.images[image.id] = image
        return image

    def clone_kernel(self, source_id: int, owner: str) -> int:
        """Copy the source image's code, read-only data and stack into frames
        from the owner's pool; the new image serves the owner's system calls
        from then on."""
        if source_id not in self.images:
            raise InvalidSource(f"no kernel image {source_id}")
        domain = self.domains[owner]
        image = self._build_image(owner, self.partition.allocate(owner, self.kparams.image_frames))
        domain.kernel_image = image.id
        return image.id

    def destroy_kernel(self, image_id: int):
        """Suspend the image's domains onto the initial kernel, return its
        frames to the pool they came from, and orphan its IRQs."""
        if image_id not in self.images:
            raise InvalidImage(f"no kernel image {image_id}")
        image = self.images[image_id]
        if image is self.initial_image:
            raise CannotDestroyInitial("the boot kernel image is undestroyable")
        for dom in self.domains.values():
            if dom.kernel_image == image_id:
                dom.suspended = True
                dom.kernel_image = self.initial_image.id
        self.partition.release(image.owner, image.frames)
        for irq in image.owned_irqs:
            self.irq_masked[irq] = self.cfg.partition_irqs
        image.owned_irqs.clear()
        del self.images[image_id]

    def set_irq_owner(self, irq: int, image_id: int):
        if image_id not in self.images:
            raise InvalidImage(f"no kernel image {image_id}")
        for img in self.images.values():
            img.owned_irqs.discard(irq)
        self.images[image_id].owned_irqs.add(irq)
        self.irq_masked[irq] = self.cfg.partition_irqs or not self.irq_fires(irq)

    # -- domains and memory ------------------------------------------------

    def add_domain(self, domain_id: str) -> Domain:
        # widely separated virtual ranges keep distinct domains' frameless
        # mappings from sharing tags while preserving set congruence
        base_vpage = 0x1000 + len(self.domains) * (1 << 20)
        dom = Domain(self.initial_image.id, next_vpage=base_vpage)
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
        pages. Returns per-line (vaddr, paddr) pairs in frame order."""
        frames = self.partition.allocate(domain_id, n_frames, colour)
        page = self.profile.page_bytes
        line = self.profile.line_bytes
        pairs = []
        for f in frames:
            vbase = self.alloc_vpages(domain_id, 1)
            pairs.extend((vbase + i, f * page + i) for i in range(0, page, line))
        return pairs

    # -- kernel memory traffic ---------------------------------------------

    def current_image(self) -> KernelImage:
        return self.images[self.domains[self.current_domain].kernel_image]

    def syscall(self, domain_id: str, which: str) -> int:
        """Serve one system call for the current domain: touch that call's
        fixed code-line footprint in the serving image. Idle touches nothing."""
        if domain_id != self.current_domain:
            raise ValueError("syscalls are served for the current domain only")
        lines = self.current_image().syscall_lines[:self.kparams.syscall_footprints[which]]
        access = self.machine.data_path.access
        return sum([access(a, a) for a in lines])

    # -- the domain switch ---------------------------------------------------

    def unmasked_irqs(self) -> set[int]:
        return {irq for irq, masked in self.irq_masked.items() if not masked}

    def irq_fires(self, irq: int) -> bool:
        """Whether device IRQ ``irq`` would be delivered now: it is unmasked.
        One never entered in the mask table is masked when IRQs are
        partitioned and live otherwise."""
        return not self.irq_masked.get(irq, self.cfg.partition_irqs)

    def check_irq_invariant(self) -> bool:
        """Unmasked device IRQs must all belong to the current image."""
        return self.unmasked_irqs() <= self.current_image().owned_irqs

    def _count_irq_checks(self, steps: int):
        """Count the IRQ invariant as checked after each of ``steps`` switch
        steps, evaluating it once. That is exact for the steps on each side
        of the domain change, since nothing else in a switch can move it:
        masking the previous image's IRQs cannot change whether the unmasked
        ones all belong to that image, nor unmasking the next image's whether
        they all belong to the next."""
        if self.cfg.partition_irqs:
            self.irq_checks += steps
            self.irq_violations += steps * (not self.check_irq_invariant())

    def domain_switch(self, next_domain: str) -> SwitchTrace:
        """Handle a preemption tick that schedules ``next_domain``: run the
        switch steps in order and return their costs. Each step reads or
        writes its shared regions line by line through the data path, in the
        order the step names them; prefetching reads every region in
        SHARED_REGION_NAMES order. ``natural`` is the cost of steps 1-9. A
        padded kernel switch spins for the rest of ``pad_cycles``, or raises
        ``PadOverrun`` when ``natural`` exceeds it, so ``total`` is
        ``pad_cycles`` (``natural`` without a pad) plus the timer step of a
        kernel switch and the return step."""
        kp, cfg = self.kparams, self.cfg
        prev_image = self.current_image()
        next_image = self.images[self.domains[next_domain].kernel_image]
        kernel_switch = prev_image.id != next_image.id
        access = self.machine.data_path.access
        (queues, bitmap, decision, irq_table, irq, asid, thread, kernel, idle, fpu,
         lock) = self.shared_regions.values()
        steps = [StepCost(1, "lock", kp.lock_cycles + access(lock, lock, True)),
                 StepCost(2, "tick", kp.tick_cycles + access(queues, queues)
                          + access(bitmap, bitmap) + access(decision, decision, True))]
        if kernel_switch:
            cost = kp.mask_cycles + access(irq_table, irq_table, True) + access(irq, irq)
            self.irq_masked.update(dict.fromkeys(prev_image.owned_irqs, True))
            steps.append(StepCost(3, "mask_prev_irqs", cost))
            steps.append(StepCost(4, "stack_switch", kp.stack_switch_cycles))
        cost = (kp.thread_switch_cycles + access(thread, thread, True)
                + access(kernel, kernel, True) + access(asid, asid)
                + access(idle, idle) + access(fpu, fpu))
        before = len(steps)
        self._count_irq_checks(before)
        self.current_domain = next_domain
        steps.append(StepCost(5, "thread_switch", cost))
        steps.append(StepCost(6, "unlock", kp.unlock_cycles + access(lock, lock, True)))
        if kernel_switch:
            self.irq_masked.update(dict.fromkeys(next_image.owned_irqs, False))
            steps.append(StepCost(7, "unmask_next_irqs",
                                  kp.unmask_cycles + access(irq_table, irq_table, True)))
            flush = self.machine.flush
            cost = 0
            for resource in cfg.flush_targets:
                cost += flush(resource)
            steps.append(StepCost(8, "flush", cost))
            if cfg.prefetch_shared:
                cost = 0
                for addr in self.shared_regions.values():
                    cost += access(addr, addr)
                steps.append(StepCost(9, "prefetch_shared", cost))
        natural = total = sum([s.cycles for s in steps])
        if kernel_switch:
            if cfg.pad_cycles > 0:
                if natural > cfg.pad_cycles:
                    self._count_irq_checks(len(steps) - before)
                    raise PadOverrun(f"switch cost {natural} exceeds pad {cfg.pad_cycles}")
                steps.append(StepCost(10, "pad", cfg.pad_cycles - natural))
                total = cfg.pad_cycles
            steps.append(StepCost(11, "reprogram_timer", kp.timer_cycles))
            total += kp.timer_cycles
        steps.append(StepCost(12, "return", kp.return_cycles))
        total += kp.return_cycles
        self._count_irq_checks(len(steps) - before)
        return SwitchTrace(steps, kernel_switch, natural, total)


def worst_case_switch_cost(machine: Machine, kparams: KernelParams,
                           flush_targets: tuple) -> int:
    """Conservative bound on the natural (pre-pad) cost of one kernel switch
    on ``machine`` that flushes ``flush_targets``: every step's fixed cost,
    every shared region missing all the way to memory twice over, and every
    flush target fully dirty."""
    kp = kparams
    fixed = (kp.lock_cycles + kp.tick_cycles + kp.mask_cycles
             + kp.stack_switch_cycles + kp.thread_switch_cycles
             + kp.unlock_cycles + kp.unmask_cycles)
    region_accesses = 2 * len(SHARED_REGION_NAMES) + 2
    flush_worst = sum(machine.flush_worst_case(r) for r in flush_targets)
    return fixed + region_accesses * machine.worst_case_data_access() + flush_worst
