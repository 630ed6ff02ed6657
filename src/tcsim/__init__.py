"""Deterministic timing-channel simulator and leakage measurement toolkit.

The package models shared stateful hardware (caches, TLB, branch predictors)
with cycle-level cost accounting, an OS layer that can clone per-domain kernel
images, colour physical memory, flush and pad on domain switches, and
partition interrupts, plus the statistics needed to decide whether a channel
leaks: kernel-density mutual information against a shuffle-derived
zero-leakage bound.
"""

__version__ = "0.1.0"
