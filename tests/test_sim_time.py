"""The summary and the timed child of scripts/sim_time.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("sim_time", ROOT / "scripts" / "sim_time.py")
sim_time = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sim_time)

PARENT = [1.0, 1.2, 1.1, 1.3, 1.4]


def test_summary_medians_quartiles_and_rounds_won():
    # the change is faster in rounds 1, 3 and 5, ties in round 2 and is
    # slower in round 4
    s = sim_time.summarise({"parent": PARENT, "change": [0.9, 1.2, 1.0, 1.35, 1.3]})
    assert s["parent"] == {"median": 1.2, "q1": 1.1, "q3": 1.3}
    assert s["change"] == {"median": 1.2, "q1": 1.0, "q3": 1.3}
    assert s["change_vs_parent"] == 0.0
    assert s["change_faster_rounds"] == 3 and s["rounds"] == 5


def test_summary_relative_change_of_the_medians():
    s = sim_time.summarise({"parent": PARENT, "change": [x * 1.1 for x in PARENT]})
    assert s["change_vs_parent"] == 0.1 and s["change_faster_rounds"] == 0


def test_lengths_map_each_perfbench_config_to_its_iterations():
    lengths = sim_time.perfbench_lengths(ROOT)
    assert set(lengths) == {"sabre-kernel-channel", "haswell-intra-core", "haswell-flush-latency"}
    assert all(isinstance(n, int) and n > 0 for n in lengths.values())


def test_a_timed_run_counts_the_switch_table():
    # haswell-overheads runs no channel: its simulator time is the switch
    # table and the colour-overhead streams
    assert sim_time.time_once(ROOT, "haswell-overheads", None) > 0


def test_a_timed_run_counts_the_llc_side_channel():
    # haswell-llc-side runs no sample channel and no switch table
    assert sim_time.time_once(ROOT, "haswell-llc-side", None) > 0
