"""The claim rule of scripts/bench_pairs.py."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run(run_s, failed=0):
    return {"run_s": run_s, "failed": failed}


def pairs(parent, change):
    return [{"seed": i, "parent": run(p), "change": run(c)}
            for i, (p, c) in enumerate(zip(parent, change), start=1)]


PARENT = [1.40, 1.38, 1.41, 1.39, 1.37, 1.40, 1.42, 1.38, 1.39, 1.41]
FASTER = [x - 0.2 for x in PARENT]


def verdict(ps, held=None):
    return bench_pairs.claim_verdict(ps, "run_s", "lower", held)


def test_clear_gain_is_met():
    v = verdict(pairs(PARENT, FASTER))
    assert v["change_better_pairs"] == 10 and v["met"]
    assert v["failed"] == {"parent": 0, "change": 0}


def test_too_few_pairs_won_is_not_met():
    change = FASTER[:8] + [x + 0.01 for x in PARENT[8:]]
    v = verdict(pairs(PARENT, change))
    assert v["change_better_pairs"] == 8 and not v["met"]


def test_gain_within_the_parents_spread_is_not_met():
    v = verdict(pairs(PARENT, [x - 0.001 for x in PARENT]))
    assert v["change_better_pairs"] == 10 and not v["met"]


def test_more_failed_operations_are_not_met():
    ps = pairs(PARENT, FASTER)
    ps[3]["change"]["failed"] = 1
    v = verdict(ps)
    assert v["failed"] == {"parent": 0, "change": 1} and not v["met"]


def test_held_out_pair_must_be_won():
    lost = {"seed": 12, "parent": run(1.40), "change": run(1.45)}
    v = verdict(pairs(PARENT, FASTER), lost)
    assert v["held_out_seed"]["change_better"] is False and not v["met"]
    won = {"seed": 12, "parent": run(1.40), "change": run(1.20)}
    assert verdict(pairs(PARENT, FASTER), won)["met"]


def test_failures_in_the_held_out_pair_count():
    held = {"seed": 12, "parent": run(1.40), "change": run(1.20, failed=1)}
    v = verdict(pairs(PARENT, FASTER), held)
    assert v["failed"]["change"] == 1 and not v["met"]
