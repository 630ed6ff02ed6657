"""Config parsing, harness orchestration, and CLI surface tests."""

import errno
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from tcsim.channels import CHANNEL_NAMES
from tcsim.cli import builtin_config_names, main
from tcsim.config import _SCHEMA, SCENARIOS, ConfigError, RunConfig, parse_config
from tcsim.harness import (measure_colour_overhead, measure_switch_costs,
                           run_scenario)
from tcsim.profiles import get_profile

README = Path(__file__).resolve().parents[1] / "README.md"
HASWELL = get_profile("haswell")

MINI = """
[platform]
profile = haswell

[channels]
run = bhb
scenarios = raw, protected
iterations = 60
seed = 10
switch_cost_table = false
"""
NOISE_FREE = (MINI.replace("run = bhb", "run = flush_latency")
              .replace("raw, protected", "protected").replace("iterations = 60", "iterations = 40")
              + "noise_sigma_pct = 0\n[switch]\n")


class TestConfigParsing:
    def test_defaults_and_overrides(self):
        cfg = parse_config(MINI)
        assert cfg.profile == "haswell"
        assert cfg.channels == ("bhb",)
        assert cfg.scenarios == ("raw", "protected")
        assert cfg.iterations == 60
        assert cfg.shuffles == 100  # untouched default

    def test_unknown_section_with_line(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown section"):
            parse_config("\n[warp]\nspeed = 9\n")

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match=r"<config>:3: unknown key 'speed'"):
            parse_config("\n[platform]\nspeed = 9\n")

    def test_bad_value_diagnostics(self):
        with pytest.raises(ConfigError, match=r":3: bad value for 'iterations'"):
            parse_config("\n[channels]\niterations = lots\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any"):
            parse_config("profile = haswell\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[platform]\nprofile = haswell\nprofile = sabre\n")

    def test_overlapping_colour_split_rejected(self):
        with pytest.raises(ConfigError, match="colour_split"):
            parse_config("[domains]\ncolour_split = 70, 40\n")

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigError, match="unknown channels"):
            parse_config("[channels]\nrun = kernel, warp\n")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="unknown profile 'nope'"):
            parse_config("[platform]\nprofile = nope\n")

    def test_comments_ignored(self):
        cfg = parse_config("[platform]\nprofile = sabre  # the Arm one\n")
        assert cfg.profile == "sabre"

    def test_irq_owner_map(self):
        cfg = parse_config("[switch]\nirq_owners = 5:d0, 9:d1\n")
        assert cfg.irq_owners == ((5, "d0"), (9, "d1"))
        with pytest.raises(ConfigError, match="irq:domain"):
            parse_config("[switch]\nirq_owners = 5\n")


# (value text, parsed value) per config key: every value in range and none
# of them the key's default
NON_DEFAULT = {
    "profile": ("sabre", "sabre"),
    "colour_split": ("25, 75", (25, 75)),
    "frames": ("2048", 2048),
    "timeslice_cycles": ("5000", 5000),
    "pad_cycles": ("100000", 100000),
    "irq_margin_pct": ("10", 10.0),
    "irq_owners": ("5:d0, 9:d1", ((5, "d0"), (9, "d1"))),
    "run": ("bhb, kernel", ("bhb", "kernel")),
    "scenarios": ("raw", ("raw",)),
    "iterations": ("30", 30),
    "warmup": ("2", 2),
    "seed": ("-7", -7),
    "noise_sigma_pct": ("0.5", 0.5),
    "symbols": ("8", 8),
    "llc_key_bits": ("16", 16),
    "llc_key_seed": ("3", 3),
    "switch_cost_table": ("false", False),
    "colour_overhead": ("true", True),
    "overhead_shares": ("0.25, 1.0", (0.25, 1.0)),
    "overhead_working_set_kib": ("64", 64),
    "shuffles": ("20", 20),
    "grid_points": ("512", 512),
    "matrix_bins": ("16", 16),
    "kde_eps": ("0.001", 0.001),
}
RANGED = [f for f in fields(RunConfig)
          if f.metadata and (f.metadata["lo"], f.metadata["hi"]) != (None, None)]


class TestConfigSchema:
    """Each RunConfig field is the one declaration of its config key."""

    def test_every_field_is_one_schema_key(self):
        attrs = [attr for keys in _SCHEMA.values() for attr, _ in keys.values()]
        assert sorted(attrs) == sorted(f.name for f in fields(RunConfig)
                                       if f.name != "raw_text")

    def test_echo_names_every_field(self):
        assert list(RunConfig().echo()) == [f.name for f in fields(RunConfig)
                                            if f.name != "raw_text"]

    def test_every_key_parses_to_its_value(self):
        assert sorted(NON_DEFAULT) == sorted(k for keys in _SCHEMA.values() for k in keys)
        text = "".join(f"[{section}]\n" + "".join(
            f"{key} = {NON_DEFAULT[key][0]}\n" for key in keys)
            for section, keys in _SCHEMA.items())
        cfg, default = parse_config(text), RunConfig()
        for keys in _SCHEMA.values():
            for key, (attr, _) in keys.items():
                assert getattr(cfg, attr) == NON_DEFAULT[key][1] != getattr(default, attr)

    @pytest.mark.parametrize("f", RANGED, ids=lambda f: f.name)
    def test_range_is_closed(self, f):
        lo, hi = f.metadata["lo"], f.metadata["hi"]
        line = f"[{f.metadata['section']}]\n{f.name} = {{}}\n"
        for edge, outside in ((lo, lo is not None and lo - 1), (hi, hi is not None and hi * 2)):
            if edge is not None:
                assert getattr(parse_config(line.format(edge)), f.name) == edge
                with pytest.raises(ConfigError, match=f"{f.name} must be "):
                    parse_config(line.format(outside))

    def test_readme_example_names_every_key(self):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        sections, section = {}, None
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = sections.setdefault(line[1:-1], [])
            elif line:
                section.append(line.split("=", 1)[0].strip())
        assert sections == {s: list(keys) for s, keys in _SCHEMA.items()}
        parse_config(block)


class TestHarness:
    def test_run_scenario_writes_everything(self, tmp_path):
        cfg = parse_config(MINI)
        report = run_scenario(cfg, tmp_path)
        assert (tmp_path / "report.json").exists()
        for scenario in ("raw", "protected"):
            cell = report["channels"]["bhb"][scenario]
            assert (tmp_path / cell["samples_csv"]).exists()
            assert (tmp_path / cell["matrix_csv"]).exists()
        assert report["channels"]["bhb"]["raw"]["leak"] is True
        assert report["channels"]["bhb"]["protected"]["leak"] is False

    def test_reports_byte_identical(self, tmp_path):
        cfg = parse_config(MINI)
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        assert ra == rb
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_config_echo_complete(self, tmp_path):
        cfg = parse_config(MINI)
        report = run_scenario(cfg, tmp_path)
        echoed = report["config"]
        for name in ("profile", "frames", "timeslice_cycles", "pad_cycles",
                     "iterations", "seed", "noise_sigma_pct", "shuffles",
                     "grid_points", "colour_split", "kde_eps"):
            assert name in echoed

    def test_switch_cost_table_pattern(self):
        tables = {s: measure_switch_costs(HASWELL, s) for s in
                  ("raw", "full_flush", "protected")}
        protected = set(tables["protected"].values())
        assert len(protected) == 1  # workload independent
        for workload, cost in tables["full_flush"].items():
            assert cost > tables["protected"][workload]
        assert tables["raw"]["idle"] == min(tables["raw"].values())

    def test_colour_overhead_endpoints(self):
        l2 = HASWELL.geometries["l2"]
        assert measure_colour_overhead(HASWELL, l2.size_bytes // 16, 0.5) == \
            pytest.approx(0.0, abs=1e-9)
        assert measure_colour_overhead(HASWELL, l2.size_bytes, 1.0) == 0.0
        assert measure_colour_overhead(HASWELL, l2.size_bytes, 0.5) > 0.0


class TestCli:
    def test_profiles_verb(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "haswell" in out and "sabre" in out and "colours=128" in out

    def test_run_builtin_names_exist(self):
        names = builtin_config_names()
        assert "haswell-kernel-channel" in names
        assert "haswell-intra-core" in names

    def test_run_missing_config_is_config_error(self, capsys):
        assert main(["run", "no-such-config-anywhere"]) == 2

    def test_run_and_analyze_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text(MINI)
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        samples = tmp_path / "out" / "bhb_raw.csv"
        assert samples.exists()
        assert main(["analyze", str(samples), "--shuffles", "40"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["leak"] is True
        assert record["m_bits"] > 0.5

    def test_analyze_near_constant_outputs(self, tmp_path, capsys):
        # symbol a constant, b spread by 1e-7: 4 bandwidths of a (eps) span
        # more than the whole grid
        rng = np.random.default_rng(0)
        rows = ["iteration,input,output"]
        for i in range(100):
            out = 7.0 if i % 2 == 0 else 7.0 + rng.normal(0.0, 1e-7)
            rows.append(f"{i},{'ab'[i % 2]},{out!r}")
        samples = tmp_path / "flat.csv"
        samples.write_text("\n".join(rows) + "\n")
        assert main(["analyze", str(samples)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert math.isfinite(record["m_bits"]) and record["m_bits"] >= 0

    def test_analyze_skips_blank_lines_and_takes_columns_in_any_order(self, tmp_path,
                                                                      capsys):
        rng = np.random.default_rng(3)
        rows = [(i, "ab"[i % 2], repr(100.0 + 5.0 * (i % 2) + rng.normal()))
                for i in range(60)]
        texts = {
            "plain": ["iteration,input,output"] + [f"{i},{s},{o}" for i, s, o in rows],
            # blank lines at the start, between rows and at the end
            "blank": ["iteration,input,output", ""]
            + [f"{i},{s},{o}" + "\n" * (i % 3 == 0) for i, s, o in rows] + [""],
            "reordered": ["output,input,iteration"] + [f"{o},{s},{i}" for i, s, o in rows],
        }
        records = {}
        for name, lines in texts.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join(lines) + "\n")
            assert main(["analyze", str(path), "--shuffles", "20"]) == 0
            record = json.loads(capsys.readouterr().out)
            assert record.pop("source") == str(path)
            records[name] = record
        assert records["blank"] == records["plain"] == records["reordered"]

    def test_switch_cost_verb(self, capsys):
        assert main(["switch-cost", "haswell", "protected"]) == 0
        out = capsys.readouterr().out
        assert "idle" in out and "l1d" in out

    @pytest.mark.parametrize("name", ["haswell", "sabre"])
    def test_switch_cost_verb_builds_what_run_builds(self, name, tmp_path, capsys):
        # a config that sets only the profile runs the switch-cost table on
        # RunConfig's defaults, which the verb and the library default to
        report = run_scenario(parse_config(f"[platform]\nprofile = {name}\n"), tmp_path)
        assert list(report["switch_cost_table"]) == list(SCENARIOS)
        for scenario, table in report["switch_cost_table"].items():
            assert table == measure_switch_costs(get_profile(name), scenario)
            assert main(["switch-cost", name, scenario]) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            assert {w: int(c) for w, c in map(str.split, rows)} == table

    def test_pad_overrun_exit_code(self, tmp_path):
        # the bhb raw cell completes before the protected cell overruns, yet
        # neither its files nor the directories made for them are left
        bad = MINI + "\n[switch]\npad_cycles = 10\n"
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(bad)
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "runs" / "out")]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    def test_pad_overrun_in_an_existing_directory(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINI + "\n[switch]\npad_cycles = 10\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text("older run\n")
        assert main(["run", str(cfg_path), "-o", str(out)]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "out"]
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]
        assert (out / "report.json").read_text() == "older run\n"

    def test_run_into_an_existing_directory(self, tmp_path):
        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text(MINI)
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep\n")
        (out / "report.json").write_text("older run\n")
        assert main(["run", str(cfg_path), "-o", str(out)]) == 0
        assert (out / "notes.txt").read_text() == "keep\n"
        assert json.loads((out / "report.json").read_text())["tool"] == "tcsim"
        assert (out / "bhb_raw.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.cfg", "out"]

    def test_failed_move_into_an_existing_directory_restores_it(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the move of the second staged file (bhb_protected_matrix.csv, after
        # bhb_protected.csv) fails: both had older versions, which were set
        # aside, and the first had already been replaced
        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text(MINI)
        out = tmp_path / "out"
        out.mkdir()
        older = {name: f"older {name}\n".encode() for name in
                 ("bhb_protected.csv", "bhb_protected_matrix.csv", "report.json", "notes.txt")}
        for name, data in older.items():
            (out / name).write_bytes(data)
        replace, staged = os.replace, []

        def failing_replace(src, dst):
            if Path(src).parent.name.startswith(".out.partial-"):
                staged.append(Path(src).name)
                if len(staged) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        assert main(["run", str(cfg_path), "-o", str(out)]) == 2
        assert staged == ["bhb_protected.csv", "bhb_protected_matrix.csv"]
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == older
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.cfg", "out"]

    @pytest.mark.parametrize("case", ["unknown profile", "unknown irq owner",
                                      "repeated channel", "repeated scenario",
                                      "repeated irq",
                                      "negative pad", "negative irq margin",
                                      "zero kde eps", "empty overhead working set",
                                      "too few iterations", "negative key bits",
                                      "zero key bits", "nan noise", "infinite noise",
                                      "negative noise", "negative key seed",
                                      "zero timeslice", "negative timeslice",
                                      "too many frames", "too few frames",
                                      "huge iterations", "huge warmup", "huge shuffles",
                                      "huge grid points", "huge matrix bins",
                                      "huge key bits", "huge overhead working set",
                                      "huge kde eps", "huge irq margin", "huge noise",
                                      "huge pad", "huge timeslice",
                                      "noise-free 1e11 pad grid",
                                      "noise-free 1e11 timeslice grid",
                                      "switch-cost profile",
                                      "analyze missing csv", "analyze one symbol",
                                      "analyze missing column", "analyze bad output",
                                      "analyze zero shuffles", "analyze one shuffle",
                                      "analyze zero grid points",
                                      "analyze one grid point",
                                      "analyze negative seed",
                                      "analyze huge shuffles", "analyze huge grid points",
                                      "analyze short row", "analyze long row",
                                      "analyze zero grid step",
                                      "analyze overflowing grid",
                                      "analyze empty file", "analyze header only",
                                      "config is a directory", "config not utf-8",
                                      "run out is a file", "run out under a file",
                                      "analyze out is a directory",
                                      "analyze out in a missing directory"])
    def test_bad_input_exits_2_with_one_line(self, case, tmp_path, capsys, monkeypatch):
        if "huge" in case:
            # an oversized value is rejected at parse time: nothing of its
            # size is ever allocated or run
            def unreached(*args, **kwargs):
                raise AssertionError(f"{case} reached a run")

            monkeypatch.setattr("tcsim.harness.run_scenario", unreached)
            monkeypatch.setattr("tcsim.cli.leak_verdict", unreached)
        configs = {
            "unknown profile": MINI.replace("profile = haswell", "profile = nope"),
            "unknown irq owner": MINI + "\n[switch]\nirq_owners = 5:d7\n",
            # each would run a cell more than once, or give an IRQ two owners
            "repeated channel": MINI.replace("run = bhb", "run = bhb, bhb"),
            "repeated scenario": MINI.replace("raw, protected", "raw, protected, raw"),
            "repeated irq": MINI + "\n[switch]\nirq_owners = 5:d0, 5:d1\n",
            "negative pad": MINI + "\n[switch]\npad_cycles = -5\n",
            "negative irq margin": MINI + "\n[switch]\nirq_margin_pct = -50\n",
            "zero kde eps": MINI + "\n[stats]\nkde_eps = 0\n",
            "empty overhead working set": MINI + "colour_overhead = true\n"
                                                 "overhead_working_set_kib = 0\n",
            "too few iterations": MINI.replace("run = bhb", "run = kernel")
                                      .replace("iterations = 60", "iterations = 3"),
            "negative key bits": MINI.replace("run = bhb", "run = llc_side")
            + "llc_key_bits = -1\n",
            "zero key bits": MINI.replace("run = bhb", "run = llc_side")
            + "llc_key_bits = 0\n",
            "nan noise": MINI + "noise_sigma_pct = nan\n",
            "infinite noise": MINI + "noise_sigma_pct = inf\n",
            "negative noise": MINI + "noise_sigma_pct = -5\n",
            "negative key seed": MINI.replace("run = bhb", "run = llc_side")
            + "llc_key_seed = -3\n",
            "zero timeslice": MINI + "\n[switch]\ntimeslice_cycles = 0\n",
            "negative timeslice": MINI + "\n[switch]\ntimeslice_cycles = -5\n",
            # rejected at parse time; a pool this size is never built
            "too many frames": MINI + "\n[domains]\nframes = 1048577\n",
            # two kernel clones leave too few colour-0 frames for the probe
            "too few frames": MINI.replace("run = bhb", "run = kernel")
                                  .replace("raw, protected", "full_flush")
            + "\n[domains]\nframes = 1024\n",
            "huge iterations": MINI.replace("iterations = 60", "iterations = 1000000000000"),
            "huge warmup": MINI + "warmup = 1000000000000\n",
            "huge shuffles": MINI + "\n[stats]\nshuffles = 1000000000000\n",
            "huge grid points": MINI + "\n[stats]\ngrid_points = 100000000000\n",
            "huge matrix bins": MINI + "\n[stats]\nmatrix_bins = 100000000000\n",
            "huge key bits": MINI.replace("run = bhb", "run = llc_side")
            + "llc_key_bits = 1000000000000\n",
            "huge overhead working set": MINI + "colour_overhead = true\n"
                                                "overhead_working_set_kib = 1000000000000\n",
            # the KDE grid [min - 3h, max + 3h] of noise-free data overflows
            "huge kde eps": MINI + "noise_sigma_pct = 0\n[stats]\nkde_eps = 1e308\n",
            # the auto pad overflows
            "huge irq margin": MINI + "\n[switch]\nirq_margin_pct = 1e307\n",
            "huge noise": MINI + "noise_sigma_pct = 1.7e308\n",
            "huge pad": MINI + "\n[switch]\npad_cycles = " + "1" + "0" * 54 + "\n",
            "huge timeslice": MINI + "\n[switch]\ntimeslice_cycles = 1" + "0" * 400 + "\n",
            # in range, but each symbol's outputs are one value so large that
            # the KDE grid around it has a zero step
            "noise-free 1e11 pad grid": NOISE_FREE + "pad_cycles = 100000000000\n",
            "noise-free 1e11 timeslice grid": NOISE_FREE
            + "timeslice_cycles = 100000000000\n",
            "run out is a file": MINI,
            "run out under a file": MINI,
        }
        out = tmp_path / "out"
        existing = tmp_path / "existing"
        existing.write_text("keep\n")
        paths = {"run out is a file": existing, "run out under a file": existing / "sub",
                 "analyze out is a directory": tmp_path,
                 "analyze out in a missing directory": out / "record.json"}
        if case == "config is a directory":
            argv = ["run", str(tmp_path), "-o", str(out)]
        elif case == "config not utf-8":
            cfg_path = tmp_path / "latin.cfg"
            cfg_path.write_bytes(MINI.replace("haswell", "has\xe9ll").encode("latin-1"))
            argv = ["run", str(cfg_path), "-o", str(out)]
        elif case in configs:
            cfg_path = tmp_path / "bad.cfg"
            cfg_path.write_text(configs[case])
            argv = ["run", str(cfg_path), "-o", str(paths.get(case, out))]
        elif case == "switch-cost profile":
            argv = ["switch-cost", "nope", "raw"]
        elif case == "analyze missing csv":
            argv = ["analyze", str(tmp_path / "missing.csv"), "-o", str(out)]
        else:
            good = "iteration,input,output\n0,a,1.0\n1,a,2.0\n2,b,3.0\n3,b,5.0\n"
            rows = {"analyze one symbol": "iteration,input,output\n0,a,1.0\n1,a,2.0\n",
                    "analyze missing column": "iteration,output\n0,1.0\n1,2.0\n",
                    "analyze bad output": "iteration,input,output\n0,a,1.0\n1,b,x\n",
                    "analyze short row": "iteration,input,output\n0,a,1.0\n1,b\n"
                                         "2,a,3.0\n3,b,4.0\n",
                    "analyze long row": "iteration,input,output\n0,a,1.0,9\n"
                                        "1,a,2.0\n2,b,3.0\n3,b,5.0\n",
                    "analyze zero grid step": "input,output\n" + "a,1e15\nb,1e15\n" * 50,
                    "analyze overflowing grid": "input,output\n"
                                                + "a,1.7e308\nb,-1.7e308\n" * 50,
                    "analyze empty file": "",
                    "analyze header only": "iteration,input,output\n"}
            flags = {"analyze zero shuffles": ["--shuffles", "0"],
                     "analyze one shuffle": ["--shuffles", "1"],
                     "analyze zero grid points": ["--grid-points", "0"],
                     "analyze one grid point": ["--grid-points", "1"],
                     "analyze negative seed": ["--seed", "-1"],
                     "analyze huge shuffles": ["--shuffles", "1000000000000"],
                     "analyze huge grid points": ["--grid-points", "100000000000"]}
            samples = tmp_path / "samples.csv"
            samples.write_text(rows.get(case, good))
            argv = ["analyze", str(samples), *flags.get(case, []),
                    "-o", str(paths.get(case, out))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        if case.endswith(" row"):
            assert ("line 3" if case == "analyze short row" else "line 2") in captured.err
        assert not out.exists()  # nothing written, or what was written removed
        assert existing.read_text() == "keep\n"
        # no staging directory left beside the output
        assert {p.name for p in tmp_path.iterdir()} <= {
            "existing", "bad.cfg", "latin.cfg", "samples.csv"}

    @pytest.mark.parametrize("case", ["profiles", "run", "pad overrun", "analyze bad csv",
                                      "switch-cost profile"])
    def test_console_script_installed(self, case, tmp_path):
        """The exit-code contract holds in a fresh interpreter too, where
        each verb imports its layers itself: a failure is one line."""
        code = {"pad overrun": 3, "analyze bad csv": 2, "switch-cost profile": 2}.get(case, 0)
        cfg_path, samples = tmp_path / "bad.cfg", tmp_path / "samples.csv"
        cfg_path.write_text(MINI + "\n[switch]\npad_cycles = 10\n")
        samples.write_text("iteration,input,output\n0,a,1.0\n1,b,x\n")
        argv = {"profiles": ["profiles"],
                "run": ["run", "haswell-overheads", "-o", str(tmp_path / "out")],
                "pad overrun": ["run", str(cfg_path), "-o", str(tmp_path / "out")],
                "analyze bad csv": ["analyze", str(samples)],
                "switch-cost profile": ["switch-cost", "nope", "raw"]}[case]
        proc = subprocess.run([sys.executable, "-m", "tcsim.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == code
        if code:
            prefix = "pad overrun: " if code == 3 else "config error: "
            assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
            assert proc.stdout == ""
        else:
            assert proc.stderr == ""

    def test_analyze_loads_no_simulator_module(self, tmp_path):
        """Importing the CLI and config, and analysing a CSV, load only the
        configuration, samples and statistics. It runs in a fresh interpreter,
        as this one has imported every module already."""
        samples = tmp_path / "samples.csv"
        samples.write_text("iteration,input,output\n" + "".join(
            f"{i},{'ab'[i % 2]},{100.0 + 5 * (i % 2) + i % 7}\n" for i in range(60)))
        script = (
            "import json, sys\n"
            "import tcsim.cli, tcsim.config\n"
            "names = ['tcsim.' + n for n in ('microarch', 'colouring', 'kernel', 'profiles',"
            " 'scenarios', 'channels', 'harness')]\n"
            "loaded = lambda: [n for n in names if n in sys.modules]\n"
            "imported = loaded()\n"
            "code = tcsim.cli.main(['analyze', sys.argv[1], '--shuffles', '20'])\n"
            "print(json.dumps([imported, code, loaded()]))\n")
        proc = subprocess.run([sys.executable, "-c", script, str(samples)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, []]


class TestLlcSideHarness:
    def test_llc_cell_and_trace(self, tmp_path):
        cfg = parse_config("""
[platform]
profile = haswell

[channels]
run = llc_side
scenarios = raw, protected
switch_cost_table = false
""")
        report = run_scenario(cfg, tmp_path)
        raw = report["channels"]["llc_side"]["raw"]
        prot = report["channels"]["llc_side"]["protected"]
        assert raw["recovery_accuracy"] >= 0.9
        assert abs(prot["recovery_accuracy"] - 0.5) <= 0.05
        # the sparse trace: one hot cell per victim touch, all on the hot
        # set, each probe missing on every way; nothing when protected
        llc = HASWELL.latency.params("llc")
        ways = HASWELL.geometries["llc"].ways
        assert raw["baseline_latency"] == prot["baseline_latency"] == ways * llc.hit_cycles
        header, *rows = (tmp_path / raw["trace_csv"]).read_text().splitlines()
        assert header == "set,quantum,latency"
        assert len(rows) == cfg.llc_key_bits + 1
        for row in rows:
            set_idx, quantum, latency = map(int, row.split(","))
            assert set_idx == raw["hot_set"] and 0 <= quantum < raw["quanta"]
            assert latency == ways * llc.miss_cycles == 672
        assert (tmp_path / prot["trace_csv"]).read_text().splitlines() == [header]


# values a config key may plausibly take, keyed by config key; every other
# value is junk. Keys missing here get junk only.
PLAUSIBLE = {
    "profile": ["haswell", "sabre"],
    "colour_split": ["50, 50", "25, 75", "90, 10"],
    "frames": ["1024", "4096"],
    "timeslice_cycles": ["200000", "5000", "1"],
    "pad_cycles": ["auto", "0", "10", "100000"],
    "irq_margin_pct": ["5", "0", "50.5"],
    "irq_owners": ["5:d0", "5:d0, 9:d1"],
    "run": [*CHANNEL_NAMES, "bhb, kernel"],
    "scenarios": ["raw", "protected", "full_flush, raw", "raw, full_flush, protected"],
    "iterations": ["3", "16", "30"],
    "warmup": ["0", "2"],
    "seed": ["1", "-1", "7"],
    "noise_sigma_pct": ["0", "2.0", "50"],
    "symbols": ["2", "4", "16"],
    "llc_key_bits": ["1", "4", "8"],
    "llc_key_seed": ["0", "48"],
    "switch_cost_table": ["true", "false"],
    "colour_overhead": ["true", "false"],
    "overhead_shares": ["0.5, 1.0", "1.0"],
    "overhead_working_set_kib": ["16", "64"],
    "shuffles": ["2", "4"],
    "grid_points": ["16", "64"],
    "matrix_bins": ["2", "8"],
    "kde_eps": ["1e-6", "0.5"],
}
JUNK = st.sampled_from(["", "-1", "0", "nan", "inf", "1e309", "x", "3.5", "true",
                        ",", "9:d7", "auto", "99999999999"]) | st.text(max_size=5)
# (section, key) -> the largest value a run in this test may use, so that
# every config that parses runs in well under a second
CLAMP = {("channels", "iterations"): 30, ("channels", "warmup"): 2,
         ("channels", "llc_key_bits"): 8, ("channels", "overhead_working_set_kib"): 64,
         ("domains", "frames"): 4096, ("stats", "shuffles"): 4,
         ("stats", "grid_points"): 64, ("stats", "matrix_bins"): 8}


@st.composite
def config_texts(draw):
    """{section: {key: value text}} over the real sections and keys, plus
    junk lines. Half the drawn configs hold plausible values only, so that
    many of them parse and run."""
    clean = draw(st.booleans())
    sections = {}
    for section, keys in _SCHEMA.items():
        chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=4))
        sections[section] = {}
        for k in chosen:
            plausible = st.sampled_from(PLAUSIBLE.get(k, ["x"]))
            sections[section][k] = draw(plausible if clean else plausible | JUNK)
    if "run" not in sections["channels"]:
        sections["channels"]["run"] = draw(st.sampled_from(PLAUSIBLE["run"]))
    extra = "" if clean else draw(st.sampled_from(
        ["", "[warp]\n", "stray line\n", "[stats]\nspeed = 9\n"]))
    return sections, extra


def render(sections, extra="") -> str:
    lines = []
    for section, pairs in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in pairs.items())
    return "\n".join(lines) + "\n" + extra


class TestConfigProperty:
    @given(config_texts())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_config_parses_or_is_a_config_error_and_runs_to_a_contract_code(
            self, drawn):
        sections, extra = drawn
        try:
            cfg = parse_config(render(sections, extra))
        except ConfigError:
            event("rejected at parse")
            return
        for (section, key), most in CLAMP.items():
            sections[section][key] = str(min(getattr(cfg, _SCHEMA[section][key][0]), most))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.cfg"
            path.write_text(render(sections))
            assert main(["run", str(path), "-o", str(Path(tmp) / "out")]) in (0, 2, 3)
