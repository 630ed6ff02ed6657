"""Golden fingerprints: every built-in config, at reduced iterations, must
reproduce the sha256 of report.json and of every CSV recorded in
``golden_digests.json``.

Two runs of the same code agreeing (test_11_determinism) cannot catch an
optimisation that changes results; these digests pin the outputs of a past
commit. Re-record them only for an intended output change, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest
from recorded_host import host_note

from tcsim.cli import builtin_config_names, resolve_config
from tcsim.harness import run_scenario

ITERATIONS = 40
DIGESTS = Path(__file__).with_name("golden_digests.json")


def fingerprint(name: str, outdir: Path) -> dict:
    """Run built-in config ``name`` at ITERATIONS and return {file: sha256}
    for report.json and every CSV it wrote."""
    cfg = resolve_config(name)
    cfg.iterations = ITERATIONS
    run_scenario(cfg, outdir)
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(outdir.iterdir())
            if f.name == "report.json" or f.suffix == ".csv"}


@pytest.mark.parametrize("name", builtin_config_names())
def test_builtin_config_matches_golden(name, tmp_path):
    golden = json.loads(DIGESTS.read_text())
    assert fingerprint(name, tmp_path) == golden[name], host_note()


def test_every_builtin_config_has_digests():
    assert sorted(json.loads(DIGESTS.read_text())) == builtin_config_names()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: fingerprint(name, Path(tmp) / name)
                   for name in builtin_config_names()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS} ({sum(map(len, digests.values()))} digests)")
