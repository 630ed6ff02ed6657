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


RUN_STDOUT = """leak-stats seed=7 trace=0: 7 runs, 0 failed
  run_s                                2.3787 s
  setup_s                              0.163776 s
  peak_rss_mib                         40.1602 MiB
  unscaled run_s (wall)                2.83518 s at speed scale 0.8647
  failed_frac                          0 (0/7)
  digest                               0f3a (golden: match)
{"correct": true, "attempted": 7, "failed": 0, "metrics": {"run_s": {"value": 2.378699612, "unit": "s"}, "setup_s": {"value": 0.16377609, "unit": "s"}, "peak_rss_mib": {"value": 40.16015625, "unit": "MiB"}}}
"""


def test_parse_run_reads_metrics_verdict_and_unscaled_line():
    out = bench_pairs.parse_run(RUN_STDOUT)
    assert out == {"run_s": 2.3787, "setup_s": 0.1638, "peak_rss_mib": 40.1602,
                   "attempted": 7, "failed": 0, "correct": True, "golden": "match",
                   "wall_s": 2.83518, "speed_scale": 0.8647}


def test_parse_run_without_unscaled_line():
    lines = [line for line in RUN_STDOUT.splitlines() if "unscaled" not in line]
    out = bench_pairs.parse_run("\n".join(lines))
    assert out["wall_s"] is None and out["speed_scale"] is None
    assert out["run_s"] == 2.3787


def test_unscaled_medians_per_side():
    ps = pairs(PARENT, FASTER)
    for p, wall, scale in zip(ps, [3.0, 2.0, 4.0], [0.9, 0.8, 1.0]):
        p["parent"].update(wall_s=wall, speed_scale=scale)
        p["change"].update(wall_s=wall / 2, speed_scale=scale - 0.1)
    for p in ps[3:]:  # runs whose summary line was missing
        for side in bench_pairs.SIDES:
            p[side].update(wall_s=None, speed_scale=None)
    summary = bench_pairs.summarise_unscaled(ps)
    assert summary["wall_s"] == {"parent": 3.0, "change": 1.5, "change_vs_parent": -0.5}
    assert summary["speed_scale"] == {"parent": 0.9, "change": 0.8,
                                      "change_vs_parent": round(0.8 / 0.9 - 1, 4)}
