"""Config parsing, harness orchestration, and CLI surface tests."""

import json
import subprocess
import sys

import pytest

from tcsim.cli import builtin_config_names, main
from tcsim.config import ConfigError, parse_config
from tcsim.harness import (measure_colour_overhead, measure_switch_costs,
                           run_scenario)
from tcsim.profiles import get_profile

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

    def test_switch_cost_verb(self, capsys):
        assert main(["switch-cost", "haswell", "protected"]) == 0
        out = capsys.readouterr().out
        assert "idle" in out and "l1d" in out

    def test_pad_overrun_exit_code(self, tmp_path):
        bad = MINI + "\n[switch]\npad_cycles = 10\n"
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(bad)
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("case", ["unknown profile", "switch-cost profile",
                                      "analyze missing csv", "analyze one symbol",
                                      "analyze missing column", "analyze bad output"])
    def test_bad_input_exits_2_with_one_line(self, case, tmp_path, capsys):
        if case == "unknown profile":
            cfg_path = tmp_path / "bad.cfg"
            cfg_path.write_text(MINI.replace("profile = haswell", "profile = nope"))
            argv = ["run", str(cfg_path), "-o", str(tmp_path / "out")]
        elif case == "switch-cost profile":
            argv = ["switch-cost", "nope", "raw"]
        elif case == "analyze missing csv":
            argv = ["analyze", str(tmp_path / "missing.csv")]
        else:
            rows = {"analyze one symbol": "iteration,input,output\n0,a,1.0\n1,a,2.0\n",
                    "analyze missing column": "iteration,output\n0,1.0\n1,2.0\n",
                    "analyze bad output": "iteration,input,output\n0,a,1.0\n1,b,x\n"}
            samples = tmp_path / "samples.csv"
            samples.write_text(rows[case])
            argv = ["analyze", str(samples)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "tcsim.cli", "profiles"],
                              capture_output=True, text=True)
        assert proc.returncode == 0


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
        assert (tmp_path / raw["trace_csv"]).exists()
