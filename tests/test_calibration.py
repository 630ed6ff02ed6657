"""CALIBRATION.json is the record of scripts/estimator_calibration.py."""

import importlib.util
import json
from pathlib import Path

from recorded_host import host_note

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "estimator_calibration", ROOT / "scripts" / "estimator_calibration.py")
calibration = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibration)


def test_accuracy_table_is_the_committed_record():
    record = json.loads((ROOT / "CALIBRATION.json").read_text())
    assert calibration.accuracy_study() == record["accuracy"], host_note()
