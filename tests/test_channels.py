"""Channel workload tests: signal shape per scenario, determinism, noise."""

import numpy as np
import pytest

from tcsim import channels
from tcsim.channels import (CHANNEL_NAMES, CHANNELS, ChannelSpec, SampleSet, run_channel,
                            run_llc_side_channel)
from tcsim.harness import noise_sigma_for
from tcsim.profiles import get_profile
from tcsim.scenarios import build_scenario
from tcsim.stats import estimate_mi

HASWELL = get_profile("haswell")
SABRE = get_profile("sabre")


def by_symbol(samples: SampleSet, outputs=None):
    groups = {}
    outs = samples.outputs if outputs is None else outputs
    for i, o in zip(samples.inputs, outs):
        groups.setdefault(i, []).append(o)
    return {k: np.array(v) for k, v in groups.items()}


def spec(kind, scenario, *, iterations=80, seed=7, alphabet=(), sigma=0.0):
    return ChannelSpec(kind, scenario, iterations=iterations, seed=seed,
                       input_alphabet=alphabet, noise_sigma=sigma)


class TestPrimeProbe:
    def test_raw_l1d_full_beats_idle(self):
        ss = run_channel(HASWELL, spec("l1d", "raw", alphabet=(0, 32)))
        groups = by_symbol(ss)
        assert groups["32"].min() > groups["0"].max()

    @pytest.mark.parametrize("resource", ["l1d", "l1i", "l2", "tlb", "btb"])
    def test_raw_monotone_in_touched_sets(self, resource):
        ss = run_channel(HASWELL, spec(resource, "raw"))
        groups = by_symbol(ss)
        means = [groups[k].mean() for k in sorted(groups, key=int)]
        assert all(a < b for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("profile, kind, scenario", [
        pytest.param(profile, kind, scenario,
                     id=f"{kind}-{scenario}" + ("-sabre" if profile is SABRE else ""))
        for profile in (HASWELL, SABRE) for kind in CHANNELS if kind != "interrupt"
        for scenario in ("raw", "full_flush", "protected")])
    def test_mitigated_outputs_exactly_constant(self, profile, kind, scenario):
        """Exact noninterference at noise 0: a mitigated cell's output
        columns keep every bit when the sender's symbols are replaced by a
        constant or a rotated alphabet (same length, so the same draws), and
        a raw cell's do not. The flush_latency channel runs full_flush
        unpadded, and only the pad closes a switch-latency channel. (The
        interrupt channel draws its phases at random.)"""
        alphabet = tuple(CHANNELS[kind].alphabet(profile, symbols=4))
        runs = [run_channel(profile, spec(kind, scenario, alphabet=a))
                for a in (alphabet, (alphabet[0],) * len(alphabet),
                          alphabet[1:] + alphabet[:1])]
        bits = [[c.tobytes() for c in (ss.outputs, *ss.extra.values())] for ss in runs]
        if scenario == "protected" or (scenario == "full_flush" and kind != "flush_latency"):
            assert len(set(runs[0].outputs.tolist())) == 1
            assert bits[1] == bits[2] == bits[0]
        else:
            assert bits[0] not in bits[1:]

    def test_bhb_direction_signal(self):
        raw = by_symbol(run_channel(HASWELL, spec("bhb", "raw")))
        assert raw["not_taken"].min() > raw["taken"].max()

    def test_sabre_l1d_raw_leaks(self):
        ss = run_channel(SABRE, spec("l1d", "raw", iterations=60))
        groups = by_symbol(ss)
        means = [groups[k].mean() for k in sorted(groups, key=int)]
        assert means[0] < means[-1]


class TestKernelChannel:
    def test_raw_signal_bands(self):
        ss = run_channel(HASWELL, spec("kernel", "raw", iterations=120))
        groups = by_symbol(ss)
        # footprint order: Signal > SetPriority > Poll > Idle
        assert groups["Signal"].min() > groups["SetPriority"].max()
        assert groups["SetPriority"].min() > groups["Poll"].max()
        assert groups["Poll"].min() > groups["Idle"].max()

    def test_protected_outputs_constant(self):
        ss = run_channel(HASWELL, spec("kernel", "protected", iterations=60))
        assert len(set(ss.outputs.tolist())) == 1

    def test_idle_only_alphabet_constant(self):
        ss = run_channel(HASWELL, spec("kernel", "raw", iterations=40,
                                       alphabet=("Idle",)))
        assert float(np.var(ss.outputs)) == 0.0

    def test_unknown_syscall_rejected(self):
        with pytest.raises(ValueError):
            run_channel(HASWELL, spec("kernel", "raw", alphabet=("Reboot",)))


class TestFlushLatencyChannel:
    def test_unpadded_offline_strictly_increasing(self):
        ss = run_channel(HASWELL, spec("flush_latency", "raw"))
        groups = by_symbol(ss)
        keys = sorted(groups, key=int)
        for g in groups.values():
            assert g.std() == 0.0  # deterministic per symbol
        means = [groups[k].mean() for k in keys]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_padded_offline_constant(self):
        ss = run_channel(HASWELL, spec("flush_latency", "protected"))
        assert len(set(ss.outputs.tolist())) == 1
        assert len(set(ss.extra["online"].tolist())) == 1
        assert ss.metadata["padded"]

    def test_zero_footprint_zero_variance(self):
        ss = run_channel(HASWELL, spec("flush_latency", "raw", alphabet=(0,),
                                       iterations=30))
        assert float(np.var(ss.outputs)) == 0.0

    def test_online_mirrors_offline(self):
        ss = run_channel(HASWELL, spec("flush_latency", "raw"))
        slice_cycles = 200_000
        assert np.allclose(ss.outputs + ss.extra["online"], 2 * slice_cycles)


class TestInterruptChannel:
    def test_unpartitioned_yes_bimodal(self):
        ss = run_channel(HASWELL, spec("interrupt", "raw", iterations=300))
        groups = by_symbol(ss)
        slice_cycles = ss.metadata["slice_cycles"]
        assert groups["no"].std() == 0.0
        assert abs(groups["yes"].mean() - slice_cycles / 2) < 0.05 * slice_cycles
        assert groups["yes"].std() >= 0.4 * slice_cycles

    def test_partitioned_constant_full_slice(self):
        ss = run_channel(HASWELL, spec("interrupt", "protected", iterations=200))
        groups = by_symbol(ss)
        for g in groups.values():
            assert g.std() == 0.0
        assert set(np.concatenate(list(groups.values())).tolist()) == {
            float(ss.outputs[0])}

    def test_mask_invariant_holds_during_run(self, monkeypatch):
        systems = []

        def capture(*args, **kwargs):
            systems.append(build_scenario(*args, **kwargs))
            return systems[-1]

        monkeypatch.setattr(channels, "build_scenario", capture)
        run_channel(HASWELL, spec("interrupt", "protected", iterations=50))
        (system,) = systems
        assert system.sim.irq_checks > 0 and system.sim.irq_violations == 0

    def test_alphabet_validated(self):
        with pytest.raises(ValueError):
            run_channel(HASWELL, spec("interrupt", "raw", alphabet=("maybe",)))

    @pytest.mark.parametrize("owners", [(), ((1, "d0"),), ((1, "d1"),), ((1, "d0"), (2, "d1"))],
                             ids=["unowned", "d0", "d1", "d0-and-2-d1"])
    @pytest.mark.parametrize("scenario", ["raw", "full_flush", "protected"])
    @pytest.mark.parametrize("profile", [HASWELL, SABRE], ids=["haswell", "sabre"])
    def test_firing_table(self, profile, scenario, owners):
        """Which builds let an armed interrupt cut the receiver's slice: raw
        always; full_flush unless the sender's image owns irq 1, which its
        switch away masks; protected never, as the sender's image owns it
        whatever the config says. A cut "yes" slice is two rows and every
        other slice one."""
        iterations = 40
        ss = run_channel(profile, spec("interrupt", scenario, iterations=iterations),
                         irq_owners=owners)
        cut = scenario == "raw" or (scenario == "full_flush" and (1, "d0") not in owners)
        yes = ss.inputs.count("yes")
        assert yes > 0
        assert len(ss.inputs) - iterations == (yes // 2 if cut else 0)


@pytest.mark.parametrize("counts, message", [
    ({"iterations": 0}, "iterations must be >= 1"),
    ({"warmup": -3, "iterations": 40}, "warmup must be >= 0"),
    ({"warmup": -5, "iterations": 2}, "warmup must be >= 0")])
def test_spec_rejects_out_of_range_counts(counts, message):
    # a negative warmup would record fewer samples than the iterations the
    # metadata states, or ask numpy for a negative-length schedule
    with pytest.raises(ValueError, match=message):
        ChannelSpec("l1d", "raw", **counts)


def test_bhb_alphabet_validated():
    # any symbol but "taken" would train not-taken, and the channel go dead
    with pytest.raises(ValueError, match="bhb channel alphabet"):
        run_channel(HASWELL, spec("bhb", "raw", alphabet=("T", "N")))


class TestLlcSideChannel:
    def test_raw_recovery(self):
        _, r = run_llc_side_channel(HASWELL, "raw", 48)
        assert r["recovery_accuracy"] >= 0.9
        assert r["hot_set"] is not None

    def test_protected_recovery_near_half(self):
        _, r = run_llc_side_channel(HASWELL, "protected", 48)
        assert abs(r["recovery_accuracy"] - 0.5) <= 0.05
        assert r["hot_set"] is None

    def test_all_zero_key_decodes_all_zeros(self):
        _, r = run_llc_side_channel(HASWELL, "raw", 48, key=np.zeros(64, dtype=int))
        assert r["recovered_key"] == "0" * 64
        assert r["recovery_accuracy"] == 1.0

    def test_raw_recovers_key_bit_for_bit(self):
        _, r = run_llc_side_channel(HASWELL, "raw", 48)
        assert r["recovered_key"] == r["true_key"]

    def test_trace_rows_baseline_except_hot(self):
        # every listed cell is a hot probe of the victim's set, one per
        # victim touch; every other probe reads the baseline
        cells, r = run_llc_side_channel(HASWELL, "raw", 48)
        assert {s for s, _, _ in cells} == {r["hot_set"]}
        assert len(cells) == len(r["true_key"]) + 1
        quanta = [q for _, q, _ in cells]
        assert quanta == sorted(set(quanta)) and quanta[-1] < r["quanta"]
        assert all(latency > r["baseline_latency"] for _, _, latency in cells)
        assert r["hot_set"] < HASWELL.geometries["llc"].sets and r["spy_sets"] > 1

    def test_protected_trace_flat(self):
        cells, r = run_llc_side_channel(HASWELL, "protected", 48)
        assert cells == [] and r["spy_sets"] > 0

    def test_decode_ties_go_to_the_lowest_set_and_short_traces_guess(self):
        # two sets equally hot: the lower one decodes; gaps 4, 2 are 1, 0
        cells = [(s, q, 9) for q in (0, 4, 6) for s in (7, 3)] + [(5, 8, 9)]
        bits, hot_set = channels._decode_trace(cells, 2)
        assert hot_set == 3 and list(bits) == [1, 0]
        bits, hot_set = channels._decode_trace(cells, 3)
        assert hot_set is None and list(bits) == [0, 0, 0]

    def test_sabre_llc_is_l2(self):
        _, r = run_llc_side_channel(SABRE, "raw", 48)
        assert r["recovery_accuracy"] >= 0.9


class TestReproducibilityAndNoise:
    def test_sampleset_bit_exact_reproducible(self):
        a = run_channel(HASWELL, spec("l1d", "raw", sigma=0.1))
        b = run_channel(HASWELL, spec("l1d", "raw", sigma=0.1))
        assert a.inputs == b.inputs
        assert np.array_equal(a.outputs, b.outputs)

    def test_different_seed_different_schedule(self):
        a = run_channel(HASWELL, spec("l1d", "raw", seed=1))
        b = run_channel(HASWELL, spec("l1d", "raw", seed=2))
        assert a.inputs != b.inputs

    def test_scenario_monotonicity_of_mi(self):
        mis = {}
        for scenario in ("raw", "full_flush", "protected"):
            ss = run_channel(HASWELL, spec("l1d", scenario, iterations=150,
                                           sigma=0.08))
            mis[scenario] = estimate_mi(ss.inputs, ss.outputs).value_bits
        assert mis["protected"] <= mis["raw"]
        assert mis["full_flush"] <= mis["raw"]

    def test_noise_never_flips_wide_separations(self):
        # deterministic separation is hundreds of cycles; 6 sigma below that
        for seed in range(3):
            ss = run_channel(HASWELL, spec("l1d", "raw", seed=seed, sigma=10.0,
                                           alphabet=(0, 32)))
            groups = by_symbol(ss)
            assert groups["32"].min() > groups["0"].max()

    def test_csv_round_trip(self, tmp_path):
        ss = run_channel(HASWELL, spec("l1d", "raw", sigma=0.05))
        path = tmp_path / "samples.csv"
        ss.to_csv(path)
        back = SampleSet.from_csv(path)
        assert back.inputs == ss.inputs
        assert np.array_equal(back.outputs, ss.outputs)

    def test_csv_round_trip_keeps_every_float_bit(self, tmp_path):
        noisy = np.random.default_rng(5).normal(300.0, 7.0, 40)
        outputs = np.concatenate([[5e-324, 1.7976931348623157e308, -0.0, 0.0], noisy])
        ss = SampleSet([str(i % 3) for i in range(len(outputs))], outputs)
        path = tmp_path / "samples.csv"
        ss.to_csv(path)
        back = SampleSet.from_csv(path)
        assert back.inputs == ss.inputs
        assert back.outputs.tobytes() == ss.outputs.tobytes()

    def test_csv_blank_lines_and_column_order(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("iteration,input,output\n0,a,1.5\n1,b,2.25\n2,a,-3e-7\n")
        blank = tmp_path / "blank.csv"
        blank.write_text("iteration,input,output\n\n0,a,1.5\n1,b,2.25\n\n\n2,a,-3e-7\n\n")
        reordered = tmp_path / "reordered.csv"
        reordered.write_text("output,input,iteration\n1.5,a,0\n2.25,b,1\n-3e-7,a,2\n")
        want = SampleSet.from_csv(plain)
        assert want.inputs == ["a", "b", "a"]
        for path in (blank, reordered):
            got = SampleSet.from_csv(path)
            assert got.inputs == want.inputs
            assert got.outputs.tobytes() == want.outputs.tobytes()

    def test_csv_rows_must_have_the_headers_field_count(self, tmp_path):
        path = tmp_path / "samples.csv"
        for text, line in (("input,output\n\na,1.0\nb\n", 4),
                           ("input,output\na,1.0,2.0\n", 2),
                           ("input,output\na,1.0\n \n", 3)):  # a space is a field
            path.write_text(text)
            with pytest.raises(ValueError, match=f"^line {line}: field count differs "
                                                 "from the header's 2$"):
                SampleSet.from_csv(path)

    def test_run_channel_dispatch(self):
        ss = run_channel(HASWELL, spec("tlb", "raw", iterations=30))
        assert ss.metadata["resource"] == "tlb"
        with pytest.raises(ValueError):
            run_channel(HASWELL, spec("warp_drive", "raw"))


class TestRegistry:
    """Every registered channel runs through the one loop on both profiles."""

    @pytest.mark.parametrize("profile", [HASWELL, SABRE], ids=lambda p: p.name)
    @pytest.mark.parametrize("name", list(CHANNELS))
    def test_every_channel_runs(self, name, profile):
        ss = run_channel(profile, spec(name, "raw", iterations=20))
        assert ss.metadata["channel"] == name
        assert ss.metadata["resource"] == CHANNELS[name].resource
        # the interrupt channel records a cut slice as two intervals
        assert len(ss.inputs) >= 20 if name == "interrupt" else len(ss.inputs) == 20
        for extra in ss.extra.values():
            assert len(extra) == len(ss.inputs)

    def test_config_names_follow_registry(self):
        assert CHANNEL_NAMES == (*CHANNELS, "llc_side")

    @pytest.mark.parametrize("profile", [HASWELL, SABRE], ids=lambda p: p.name)
    @pytest.mark.parametrize("name", list(CHANNELS))
    def test_noise_scales_by_registry_resource(self, name, profile):
        resource = CHANNELS[name].noise_resource or profile.partitioned_cache
        hit = profile.latency.params(resource).hit_cycles
        assert noise_sigma_for(profile, name, 50.0) == pytest.approx(0.5 * hit)
        assert noise_sigma_for(profile, name, 0.0) == 0.0
