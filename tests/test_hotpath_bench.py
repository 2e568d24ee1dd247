"""Tests for the rae-bench hot-path surface: the mix harness and its
artifact schema, the calibration-normalized perf ratchet, the CLI round
trip, and the seeded-regression acceptance path (a sleep injected into
the device layer must be *attributed* to the device layer and must
*fail* the ratchet that a clean run passes)."""

import json
import time

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.hotpath import (
    MIX_PROFILES,
    calibration_score,
    run_hotpath_bench,
    run_mix,
    write_hotpath,
)
from repro.bench.ratchet import (
    BASELINE_SCHEMA,
    DEFAULT_TOLERANCE,
    baseline_from_artifact,
    check_against_baseline,
    load_baseline,
)
from repro.bench.reporting import render_hotpath
from repro.obs.check import (
    BENCH_HOTPATH_ENV,
    MIN_HOTPATH_MIXES,
    check_hotpath_payload,
)
from repro.obs.prof import LAYERS

# Small-but-real sizes: every test below runs actual supervisor ops, so
# keep the streams short and single-round.
OPS = 40
ROUNDS = 1


def _zero_layers(mix: dict) -> bool:
    return all(
        entry["self_seconds"] == 0.0 and entry["calls"] == 0
        for entry in mix["layers"].values()
    )


class TestHarness:
    def test_full_artifact_is_schema_valid(self):
        payload = run_hotpath_bench(ops=OPS, rounds=ROUNDS)
        assert check_hotpath_payload(payload) == []
        assert set(payload["mixes"]) == set(MIX_PROFILES)
        assert len(payload["mixes"]) >= MIN_HOTPATH_MIXES
        assert payload["meta"]["calibration_score"] > 0
        for mix in payload["mixes"].values():
            # ops counts the whole executed stream: prepopulation + the
            # OPS measured operations.
            assert mix["ops"] >= OPS
            assert mix["ops_per_second"] > 0
            assert set(mix["layers"]) == set(LAYERS)
            assert mix["latency_seconds"]["p50"] is not None
            # Shares are a partition of the measured self-time.
            assert sum(e["share"] for e in mix["layers"].values()) == pytest.approx(1.0)

    def test_mix_sections_have_a_deterministic_schema(self):
        """Two runs produce byte-identical key structure (values differ:
        wall time is real)."""

        def shape(value):
            if isinstance(value, dict):
                return {k: shape(v) for k, v in value.items()}
            return type(value).__name__

        a = run_mix("read_heavy", ops=OPS, rounds=ROUNDS)
        b = run_mix("read_heavy", ops=OPS, rounds=ROUNDS)
        assert shape(a) == shape(b)
        assert list(a["layers"]) == list(LAYERS)

    def test_unknown_mix_is_rejected(self):
        with pytest.raises(ValueError, match="unknown mix"):
            run_hotpath_bench(ops=10, rounds=1, mixes=["nope"])

    def test_attribution_off_zeroes_layers_but_still_measures(self):
        mix = run_mix("read_heavy", ops=OPS, rounds=ROUNDS, attribution=False)
        assert mix["ops_per_second"] > 0
        assert mix["latency_seconds"]["p50"] is not None
        assert set(mix["layers"]) == set(LAYERS)
        assert _zero_layers(mix)

    def test_run_mix_profiles_every_op(self, monkeypatch):
        """rae-bench stays in exact mode whatever the supervisor default
        is, so its layer tables stay comparable across runs."""
        import repro.bench.hotpath as hotpath

        supervisors = []
        supervisor_class = hotpath.RAEFilesystem

        def recording(*args, **kwargs):
            fs = supervisor_class(*args, **kwargs)
            supervisors.append(fs)
            return fs

        monkeypatch.setattr(hotpath, "RAEFilesystem", recording)
        mix = run_mix("write_heavy", ops=OPS, rounds=2)
        assert len(supervisors) == 2
        for fs in supervisors:
            assert fs.profiler.every == 1
            # The api layer wraps RAEFilesystem._call: one call per op.
            assert fs.profiler.calls["api"] == fs.seq > OPS
        assert mix["layers"]["api"]["calls"] == supervisors[0].seq

    def test_write_hotpath_explicit_env_and_default(self, tmp_path, monkeypatch):
        payload = {"schema": 1, "meta": {}, "mixes": {}}
        explicit = tmp_path / "explicit.json"
        assert write_hotpath(payload, str(explicit)) == str(explicit)
        assert json.loads(explicit.read_text()) == payload

        via_env = tmp_path / "via_env.json"
        monkeypatch.setenv(BENCH_HOTPATH_ENV, str(via_env))
        assert write_hotpath(payload) == str(via_env)
        assert via_env.exists()

        monkeypatch.delenv(BENCH_HOTPATH_ENV)
        monkeypatch.chdir(tmp_path)
        assert write_hotpath(payload) == "BENCH_hotpath.json"
        assert (tmp_path / "BENCH_hotpath.json").exists()

    def test_calibration_score_is_positive(self):
        assert calibration_score(rounds=1) > 0


def _valid_artifact(cal=100.0):
    """A synthetic artifact that passes the schema gate (four canonical
    mixes, full layer tables) without running the harness."""
    mixes = {}
    for name in ("read_heavy", "write_heavy", "create_unlink_heavy", "lookup_heavy"):
        mixes[name] = {
            "ops": 10,
            "elapsed_seconds": 0.01,
            "ops_per_second": 1000.0,
            "latency_seconds": {"p50": 1e-4, "p95": 2e-4, "p99": 4e-4},
            "layers": {
                layer: {
                    "self_seconds": 0.0, "calls": 0, "share": 0.0,
                    "p50": None, "p95": None, "p99": None,
                }
                for layer in LAYERS
            },
        }
    return {"schema": 1, "meta": {"calibration_score": cal}, "mixes": mixes}


def _artifact(cal=100.0, ops_s=1000.0, p50=1e-4, p95=2e-4, p99=4e-4, name="m"):
    """A minimal synthetic artifact for ratchet unit tests."""
    return {
        "schema": 1,
        "meta": {"calibration_score": cal},
        "mixes": {
            name: {
                "ops_per_second": ops_s,
                "latency_seconds": {"p50": p50, "p95": p95, "p99": p99},
            }
        },
    }


class TestRatchet:
    def test_baseline_distills_artifact_and_carries_tolerance(self):
        baseline = baseline_from_artifact(_artifact(), tolerance={"p99": 9.0})
        assert baseline["schema"] == BASELINE_SCHEMA
        assert baseline["calibration_score"] == 100.0
        assert baseline["tolerance"]["p99"] == 9.0
        assert baseline["tolerance"]["p50"] == DEFAULT_TOLERANCE["p50"]
        assert baseline["mixes"]["m"]["ops_per_second"] == 1000.0
        assert baseline["mixes"]["m"]["latency_seconds"]["p95"] == 2e-4

    def test_identical_run_passes(self):
        artifact = _artifact()
        assert check_against_baseline(artifact, baseline_from_artifact(artifact)) == []

    def test_throughput_below_floor_fails(self):
        baseline = baseline_from_artifact(_artifact(ops_s=1000.0))
        # tolerance 0.60 -> floor at 400 ops/s normalized.
        slow = _artifact(ops_s=350.0)
        problems = check_against_baseline(slow, baseline)
        assert any("ops_per_second regressed" in p for p in problems)
        assert check_against_baseline(_artifact(ops_s=450.0), baseline) == []

    def test_latency_above_ceiling_fails(self):
        baseline = baseline_from_artifact(_artifact(p50=1e-4))
        # tolerance 1.50 -> ceiling at 2.5x baseline p50.
        slow = _artifact(p50=3e-4)
        problems = check_against_baseline(slow, baseline)
        assert any("latency p50 regressed" in p for p in problems)

    def test_calibration_normalization_cancels_machine_speed(self):
        """The same code on a 2x-faster machine (doubled calibration,
        doubled throughput, halved latency) is not a regression."""
        baseline = baseline_from_artifact(_artifact())
        faster = _artifact(cal=200.0, ops_s=2000.0, p50=5e-5, p95=1e-4, p99=2e-4)
        assert check_against_baseline(faster, baseline) == []
        # ...and a slower machine is not punished either.
        slower = _artifact(cal=50.0, ops_s=500.0, p50=2e-4, p95=4e-4, p99=8e-4)
        assert check_against_baseline(slower, baseline) == []

    def test_none_percentiles_are_skipped(self):
        baseline = baseline_from_artifact(_artifact(p99=None))
        assert check_against_baseline(_artifact(p99=None), baseline) == []
        assert check_against_baseline(_artifact(p99=1.0), baseline) == []

    def test_baseline_mix_missing_from_artifact_fails(self):
        baseline = baseline_from_artifact(_artifact(name="kept"))
        problems = check_against_baseline(_artifact(name="other"), baseline)
        assert any("missing from the artifact" in p for p in problems)

    def test_unbaselined_artifact_mix_fails(self):
        baseline = baseline_from_artifact(_artifact(name="m"))
        artifact = _artifact(name="m")
        artifact["mixes"]["fresh"] = dict(artifact["mixes"]["m"])
        problems = check_against_baseline(artifact, baseline)
        assert any("not in the baseline" in p and "fresh" in p for p in problems)
        assert any("--update-baseline" in p for p in problems)

    def test_missing_calibration_cannot_normalize(self):
        baseline = baseline_from_artifact(_artifact())
        broken = _artifact()
        del broken["meta"]["calibration_score"]
        assert check_against_baseline(broken, baseline) == [
            "calibration score missing or non-positive; cannot normalize"
        ]

    def test_load_baseline_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "base.json"
        bad.write_text('{"schema": 99}')
        with pytest.raises(ValueError, match="not a schema-1 hotpath baseline"):
            load_baseline(str(bad))


class TestCLI:
    def test_run_update_check_round_trip(self, tmp_path, capsys):
        artifact = tmp_path / "BENCH_hotpath.json"
        baseline = tmp_path / "hotpath.baseline.json"
        code = bench_main([
            "--ops", str(OPS), "--rounds", "1",
            "--out", str(artifact),
            "--baseline", str(baseline), "--update-baseline",
            "--quiet",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "baseline updated" in captured.out
        assert json.loads(baseline.read_text())["schema"] == BASELINE_SCHEMA

        # The CI shape: check a pre-existing artifact against the baseline.
        code = bench_main([
            "--artifact", str(artifact),
            "--baseline", str(baseline), "--check-baseline",
            "--quiet",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "baseline check ok" in captured.out

    def test_tables_render_unless_quiet(self, tmp_path, capsys):
        artifact = tmp_path / "BENCH_hotpath.json"
        assert bench_main([
            "--ops", "20", "--rounds", "1", "--mix", "read_heavy",
            "--out", str(artifact),
        ]) == 0
        captured = capsys.readouterr()
        assert "per-layer self-time" in captured.out
        assert "p99us" in captured.out
        # A --mix subset is an experiment: the gate notes, never fails.
        assert "note:" in captured.err

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        artifact = tmp_path / "BENCH_hotpath.json"
        artifact.write_text(json.dumps(_valid_artifact()))
        code = bench_main([
            "--artifact", str(artifact),
            "--baseline", str(tmp_path / "nope.json"), "--check-baseline",
            "--quiet",
        ])
        assert code == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_corrupt_artifact_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_hotpath.json"
        bad.write_text("{truncated")
        assert bench_main(["--artifact", str(bad), "--quiet"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_schema_invalid_artifact_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_hotpath.json"
        bad.write_text(json.dumps({"schema": 99, "meta": {}, "mixes": {}}))
        assert bench_main(["--artifact", str(bad), "--quiet"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_mix_exits_2(self, capsys):
        assert bench_main(["--mix", "nope", "--quiet"]) == 2
        assert "unknown mix" in capsys.readouterr().err


class TestSeededRegression:
    """ISSUE acceptance: a synthetic sleep seeded into one layer is
    attributed to that layer and trips the ratchet; a clean run passes."""

    def test_device_sleep_is_attributed_and_fails_the_ratchet(self):
        def slow_device(device):
            real_write = device.write_block

            def write_block(block_no, data):
                time.sleep(0.002)  # the seeded synthetic regression
                return real_write(block_no, data)

            device.write_block = write_block

        kwargs = dict(ops=OPS, rounds=1, mixes=["write_heavy"])
        clean = run_hotpath_bench(**kwargs)
        slowed = run_hotpath_bench(**kwargs, device_tweak=slow_device)

        clean_device = clean["mixes"]["write_heavy"]["layers"]["device"]
        slow_device_layer = slowed["mixes"]["write_heavy"]["layers"]["device"]
        assert slow_device_layer["calls"] > 0
        # Attribution: the injected cost lands in the device layer, which
        # now dominates the breakdown instead of being a rounding error.
        assert slow_device_layer["share"] > clean_device["share"]
        assert slow_device_layer["share"] > 0.5
        assert slow_device_layer["self_seconds"] > clean_device["self_seconds"] * 5

        baseline = baseline_from_artifact(clean)
        assert check_against_baseline(clean, baseline) == []
        problems = check_against_baseline(slowed, baseline)
        assert problems, "seeded regression escaped the ratchet"
        assert all("write_heavy" in p for p in problems)


class TestRenderHotpath:
    def test_tables_carry_summary_and_layers(self):
        payload = run_hotpath_bench(ops=20, rounds=1, mixes=["lookup_heavy"])
        text = render_hotpath(payload)
        assert "hot-path throughput" in text
        assert "calibration=" in text
        assert "lookup_heavy — per-layer self-time" in text
        for column in ("ops/s", "p50us", "p95us", "p99us", "share"):
            assert column in text
        for layer in LAYERS:
            assert layer in text

    def test_none_percentiles_render_as_dash(self):
        payload = {
            "meta": {},
            "mixes": {
                "m": {
                    "ops": 1,
                    "ops_per_second": 10.0,
                    "latency_seconds": {"p50": None, "p95": None, "p99": None},
                    "layers": {},
                }
            },
        }
        lines = render_hotpath(payload).splitlines()
        row = next(line for line in lines if line.startswith("m "))
        assert row.count("-") >= 3
