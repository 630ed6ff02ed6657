"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Runs take a few seconds each: the simulator workloads run at a reduced
length, in-process, with tcsim imported from this checkout's ``src``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SIM = tuple(workloads.SIM_WORKLOADS)
QUICK_LENGTH = {"kernel-channel": 24, "intra-core": 24, "flush-latency": 40,
                "leak-stats": 300}

# every patched site, and the workloads on which it must be reached
REACHED_ON = {
    "CacheState.access": ("intra-core", "flush-latency", "kernel-channel"),
    "CacheState.lookup": ("kernel-channel",),
    "CacheState.flush": SIM,
    "PredictorState.flush_bhb": SIM,
    "MemoryHierarchy.access": SIM,
    "PredictorState.touch": ("intra-core",),
    "Simulator.domain_switch": SIM,
    "Simulator.syscall": ("kernel-channel",),
    "tcsim.channels.build_scenario": SIM,
    "tcsim.harness.build_scenario": SIM,
    "tcsim.harness.run_channel": SIM,
    "tcsim.harness.leak_verdict": SIM,
    "tcsim.cli.leak_verdict": ("leak-stats",),
    "tcsim.stats.estimate_mi": workloads.WORKLOADS,
    "tcsim.stats.zero_leakage_bound": workloads.WORKLOADS,
    "tcsim.harness.channel_matrix": SIM,
    "tcsim.harness.measure_switch_costs": SIM,
    "SampleSet.to_csv": SIM,
    "SampleSet.from_csv": ("leak-stats",),
}


def quick_run(workload, tmp_path, traced, name="run"):
    inp = workloads.write_input(workload, workloads.DEFAULT_SEED, tmp_path / "input", SRC,
                                QUICK_LENGTH[workload])
    out = tmp_path / name
    trace = tracer.Tracer() if traced else None
    result = child.run_workload(workload, inp, out, trace)
    return inp, out, result


def files_of(path):
    paths = sorted(path.glob("*")) if path.is_dir() else [path]
    return {p.name: p.read_bytes() for p in paths}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(tmp_path, workload):
    def make(seed, name):
        return files_of(workloads.write_input(workload, seed, tmp_path / name, SRC))

    first = make(7, "a")
    assert first == make(7, "b")
    assert first != make(8, "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reaches_its_sites_and_keeps_outputs(tmp_path, workload):
    inp, plain_out, _ = quick_run(workload, tmp_path, traced=False, name="plain")
    _, traced_out, result = quick_run(workload, tmp_path, traced=True, name="traced")
    assert set(result["sites"]) == set(REACHED_ON)
    unreached = [site for site, where in REACHED_ON.items()
                 if workload in where and result["sites"][site] == 0]
    assert not unreached
    assert (workloads.check_outputs(workload, inp, traced_out)
            == workloads.check_outputs(workload, inp, plain_out))
    layers = result["layers"]
    assert set(layers) == {name for name, _, _ in tracer.PER_LAYER} - run.UNTRACED
    assert all(layers[f"share.{layer}"] >= 0 for layer in tracer.LAYERS + ("tracer",))
    if workload == "leak-stats":
        assert all(v == 0 for k, v in layers.items()
                   if k.startswith("microarch.") and k.endswith(".calls"))
        assert layers["share.stats"] > 0.5


@pytest.mark.parametrize("corrupt", ["flip a digit", "delete a file"])
def test_corrupted_outputs_count_as_failed(tmp_path, corrupt):
    inp, out, result = quick_run("leak-stats", tmp_path, traced=False)
    bad_out = tmp_path / "bad"
    shutil.copytree(out, bad_out)
    victim = sorted(bad_out.glob("*.json"))[0]
    if corrupt == "delete a file":
        victim.unlink()
    else:
        text = victim.read_text()
        i = next(i for i, c in enumerate(text) if c in "123456789")
        victim.write_text(text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:])
    samples = []
    for path in (out, bad_out):
        sample = run.Sample(traced=False)
        sample.result = {**result, "peak_rss_mib": 40.0}
        run.check_sample(sample, "leak-stats", inp, path)
        samples.append(sample)
    run.cross_check(samples, {}, "leak-stats", workloads.DEFAULT_SEED, "")
    summary = run.summarise(samples, trace=False)
    assert summary["attempted"] == 2 and summary["failed"] == 1
    assert summary["correct"] is False


def test_golden_check(tmp_path):
    files = {"report.json": "ab", "x.csv": "cd"}
    golden = {"w": {"1": {"input": "in", "files": files}}}
    assert workloads.check_golden(golden, "w", 1, "in", files)
    assert not workloads.check_golden(golden, "w", 2, "in", files)
    for wrong_input, wrong_files in (("other", files), ("in", {**files, "x.csv": "ce"}),
                                     ("in", {"report.json": "ab"})):
        with pytest.raises(workloads.OutputError):
            workloads.check_golden(golden, "w", 1, wrong_input, wrong_files)


def test_benchmark_json_lists_the_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
            == run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
            == tracer.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "leak-stats",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
