"""The claim rule of scripts/bench_pairs.py."""

import importlib.util
import json
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
    assert summary["wall_s"] == {"parent": 3.0, "change": 1.5, "change_vs_parent": -0.5,
                                 "change_better_pairs": 3}
    assert summary["speed_scale"] == {"parent": 0.9, "change": 0.8,
                                      "change_vs_parent": round(0.8 / 0.9 - 1, 4)}


def test_unscaled_wall_pairs_won_skip_ties_and_missing_values():
    ps = pairs(PARENT[:5], FASTER[:5])
    walls = [(3.0, 2.0), (3.0, 3.5), (3.0, 3.0), (3.0, None), (None, 1.0)]
    for p, (parent, change) in zip(ps, walls):
        p["parent"]["wall_s"], p["change"]["wall_s"] = parent, change
    assert bench_pairs.summarise_unscaled(ps)["wall_s"]["change_better_pairs"] == 1


def test_unscaled_claim_rule_skips_missing_walls_and_reads_the_held_out_pair():
    ps = pairs(PARENT, FASTER)
    for p, wall in zip(ps, PARENT):
        p["parent"]["wall_s"], p["change"]["wall_s"] = wall * 1.2, wall * 1.2 - 0.2
    ps[9]["change"]["wall_s"] = None  # a run without its summary line
    held = {"seed": 12, "parent": {**run(1.40), "wall_s": 1.70},
            "change": {**run(1.20), "wall_s": 1.75}}
    v = bench_pairs.unscaled_verdict(ps, held)
    assert v["pairs"] == 9 and v["change_better_pairs"] == 9
    assert v["median_difference"] == -0.2
    parent_walls = sorted(w * 1.2 for w in PARENT[:9])
    assert v["parent_iqr"] == round(parent_walls[6] - parent_walls[2], 4)
    assert v["held_out_change_better"] is False and not v["met"]
    held["change"]["wall_s"] = 1.50
    assert bench_pairs.unscaled_verdict(ps, held)["met"]
    # the scaled claim is decided without it
    assert bench_pairs.claim_verdict(ps, "run_s", "lower", held)["met"]
    assert bench_pairs.unscaled_verdict(ps[:1]) is None


def test_unscaled_verdict_only_for_a_run_s_claim(tmp_path, monkeypatch):
    """Wall seconds time the run alone, so a claim on any other metric
    records ``"unscaled": null`` rather than a verdict on run wall time."""
    def fake_pair(dirs, workload, seed, parent_first):
        side = lambda setup, wall: {"run_s": 1.40, "setup_s": setup,  # noqa: E731
                                    "peak_rss_mib": 40.0, "attempted": 3, "failed": 0,
                                    "correct": True, "golden": "match",
                                    "wall_s": wall, "speed_scale": 1.0}
        return {"seed": seed, "parent": side(0.160 + seed / 1000, 1.7),
                "change": side(0.125 + seed / 1000, 1.5)}

    monkeypatch.setattr(bench_pairs, "run_pair", fake_pair)
    monkeypatch.setattr(bench_pairs, "revision", lambda checkout: checkout.name)
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        (SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workloads", "leak-stats",
            "--seeds", *map(str, range(1, 11)), "--held-out", "11", "--out", str(out)]
    assert bench_pairs.main([*argv, "--claim", "leak-stats:setup_s"]) == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["met"] and claim["unscaled"] is None
    # the same walls judged for a run_s claim, which the scaled rule rejects
    assert bench_pairs.main([*argv, "--claim", "leak-stats:run_s"]) == 0
    claim = json.loads(out.read_text())["claim"]
    assert not claim["met"] and claim["unscaled"]["met"]
    assert claim["unscaled"]["held_out_change_better"]


def test_src_lines_totals_what_wc_counts(tmp_path):
    package = tmp_path / "src" / "tcsim"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n\nno final newline")
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "c.py").write_text("not counted either\n")
    assert bench_pairs.src_lines(tmp_path) == 4
