"""Channel samples: (input symbol, timing output) pairs and their CSV form.

Kept apart from the channel runners so that analysing an existing sample
CSV loads only this and the statistics, not the simulator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


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
        """Samples from a CSV whose header names ``input`` and ``output`` (in
        any order, the last of a repeated name counting). Every row has the
        header's field count; blank lines are skipped. Rows are read one at a
        time."""
        inputs, outputs = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            column = {name: i for i, name in enumerate(header)}
            at_input, at_output = column["input"], column["output"]
            width = len(header)
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise ValueError(f"line {reader.line_num}: field count differs "
                                     f"from the header's {width}")
                inputs.append(row[at_input])
                outputs.append(float(row[at_output]))
        return cls(inputs, np.array(outputs))
