import csv
import json
import math
import threading

import pytest

from qscsim.cli import main
from qscsim.report import CSV_COLUMNS

BASE_CONFIG = {
    "master_seed": 42,
    "n_trials": 400,
    "collapse": {"model": "jump_exponential", "t_c_mean": 180.0},
    "observer": {"t_p": 0.001, "jitter_sigma": 0.0002, "resolution": 0.01},
    "scenario": {"tag": "post_collapse_only"},
    "rule": {"kind": "timing_threshold", "threshold_time": 0.05, "batch_n": 1},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON literal {token}")

    return json.loads(text, parse_constant=reject)


def write_config(tmp_path, extra, name="cfg.json"):
    raw = dict(BASE_CONFIG)
    raw.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestRun:
    def test_run_writes_csv_with_exact_columns(self, config_path, tmp_path, capsys):
        out = tmp_path / "result.csv"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 2
        row = dict(zip(rows[0], rows[1]))
        assert row["master_seed"] == "42"
        assert row["n_trials"] == "400"
        assert row["sweep_param"] == ""
        assert row["device_success"] == ""
        assert float(row["acc_overall"]) >= 0.99

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", config_path, "--out", str(out1)])
        main(["run", "--config", config_path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_output(self, config_path, tmp_path):
        out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
        main(["run", "--config", config_path, "--out", str(out1), "--threads", "1"])
        main(["run", "--config", config_path, "--out", str(out4), "--threads", "4"])
        assert out1.read_bytes() == out4.read_bytes()

    def test_threads_flag_is_an_accepted_no_op(self, tmp_path, capsys, monkeypatch):
        def no_threads(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        run_path = write_config(tmp_path, {"device_baseline": True})
        sweep_path = write_config(
            tmp_path, {"n_trials": 100, "sweep": {"param": "collapse.t_c_mean", "values": [1.0, 2.0]}}, name="s.json"
        )
        for verb, path in (("run", run_path), ("sweep", sweep_path)):
            outputs = []
            for threads in ("1", "2", "10000"):
                out = tmp_path / f"{verb}-{threads}.csv"
                assert main([verb, "--config", path, "--json", "--out", str(out), "--threads", threads]) == 0
                outputs.append((capsys.readouterr().out, out.read_bytes()))
            assert outputs[0] == outputs[1] == outputs[2]
            assert json.loads(outputs[0][0])["rng_stream"] == "block-v1"
        assert main(["run", "--config", run_path, "--threads", "0"]) == 1
        assert "--threads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, extra",
        [
            ("priors", {"priors": math.nan}),
            ("observer.jitter_sigma", {"observer": {"t_p": 0.001, "jitter_sigma": math.inf}}),
            ("collapse.t_c_mean", {"collapse": {"model": "jump_exponential", "t_c_mean": math.nan}}),
            ("sweep.values[1]", {"sweep": {"param": "priors", "values": [0.5, math.inf]}}),
        ],
    )
    def test_non_finite_number_names_field(self, tmp_path, capsys, field, extra):
        path = write_config(tmp_path, extra)
        assert main(["run", "--config", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err and "finite" in captured.err

    def test_seed_override(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", config_path, "--out", str(out1), "--seed", "7"])
        main(["run", "--config", config_path, "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()
        with open(out1, newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["master_seed"] == "7"

    def test_json_summary_echoes_resolved_config(self, config_path, capsys):
        assert main(["run", "--config", config_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rng_stream"] == "block-v1"
        assert payload["resolved_config"]["collapse"]["t_c_mean"] == 180.0
        assert payload["summary"]["n_trials"] == 400
        assert payload["summary"]["accuracy_overall"]["estimate"] >= 0.99

    def test_device_baseline_flag(self, config_path, capsys):
        assert main(["run", "--config", config_path, "--json", "--device-baseline"]) == 0
        payload = json.loads(capsys.readouterr().out)
        success = payload["summary"]["device_success"]["estimate"]
        bound = payload["summary"]["device_bound"]
        assert 0.6 < success < 0.9
        assert bound == pytest.approx(0.8535533905932737)

    def test_missing_config_file_fails(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_names_field(self, tmp_path, capsys):
        path = write_config(tmp_path, {"collapse": {"t_c_mean": -1}})
        assert main(["run", "--config", path]) == 1
        assert "collapse.t_c_mean" in capsys.readouterr().err


SWEEP_JUMP = {"n_trials": 200, "collapse": {"model": "jump_exponential", "t_c_mean": 0.02}}


DIFFUSION_POINTS = {"input_p1": 0.3, "collapse": {"model": "diffusion", "t_c_mean": 0.02}}
RANDOM_PERCEPT = {
    "scenario": {"tag": "random_percept", "r": 0.3},
    "rule": {"kind": "combined", "threshold_time": 0.05, "batch_n": 2},
}
FIXED_C1 = {"scenario": {"tag": "fixed_c1"}, "rule": {"kind": "combined", "threshold_time": 0.05, "batch_n": 3}}
NO_JITTER = {"observer": {"t_p": 0.001, "jitter_sigma": 0.0, "resolution": 0.01}}


class TestSweep:
    # Points that share a stream layout run on one set of draws; each must
    # still equal a separate run of its own config.
    @pytest.mark.parametrize(
        "param, values, extra, flags",
        [
            ("collapse.t_c_mean", [0.05, 0.002, 0.01], {}, []),
            ("observer.t_p", [0.03, 0.001], {}, []),
            ("rule.batch_n", [3, 1], {}, []),
            ("collapse.t_c_mean", [0.05, 0.002, 0.01], DIFFUSION_POINTS, []),
            ("observer.t_p", [0.03, 0.001, 0.01], RANDOM_PERCEPT, []),
            ("rule.threshold_time", [0.001, 0.03, 0.01], FIXED_C1, ["--device-baseline"]),
            ("collapse.t_c_mean", [0.001, 0.0015, 0.05], NO_JITTER, []),
            ("collapse.t_c_mean", [0.05, 0.002, 0.01], {"n_trials": 9000}, []),
            ("priors", [0.8, 0.2, 0.5], {}, []),
        ],
    )
    def test_sweep_point_equals_run(self, tmp_path, capsys, param, values, extra, flags):
        base = {**SWEEP_JUMP, **extra}
        path = write_config(tmp_path, {**base, "sweep": {"param": param, "values": values}})
        assert main(["sweep", "--config", path, "--json", *flags]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert [p["sweep_value"] for p in points] == sorted(values)
        section, _, key = param.partition(".")
        for point in points:
            raw = {**BASE_CONFIG, **base}
            if key:
                raw[section] = {**raw[section], key: point["sweep_value"]}
            else:
                raw[section] = point["sweep_value"]
            run_path = tmp_path / "point.json"
            run_path.write_text(json.dumps(raw))
            assert main(["run", "--config", str(run_path), "--json", *flags]) == 0
            single = json.loads(capsys.readouterr().out)
            assert point["summary"] == single["summary"]
            assert point["resolved_config"] == single["resolved_config"]

    def test_sweep_rows_ordered_and_complete(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "n_trials": 300,
                "priors": 0.0,
                "collapse": {"model": "deterministic_time", "t_c_mean": 1.0},
                "scenario": {"tag": "fixed_c1"},
                "rule": {"kind": "change_detection", "batch_n": 1},
                "sweep": {"param": "rule.batch_n", "values": [5, 1, 3]},
            },
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["sweep_value"] for r in rows] == ["1", "3", "5"]
        assert all(r["sweep_param"] == "rule.batch_n" for r in rows)
        rates = [float(r["acc_superposition"]) for r in rows]
        assert rates[0] < rates[1] < rates[2]

    def test_sweep_to_stdout(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"n_trials": 100, "sweep": {"param": "collapse.t_c_mean", "values": [1.0, 2.0]}},
        )
        assert main(["sweep", "--config", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS
        assert len(lines) == 3

    def test_sweep_requires_sweep_section(self, config_path, capsys):
        assert main(["sweep", "--config", config_path]) == 1
        assert "sweep" in capsys.readouterr().err

    def test_sweep_rerun_is_byte_identical(self, tmp_path):
        path = write_config(
            tmp_path,
            {"n_trials": 200, "sweep": {"param": "observer.t_p", "values": [0.001, 0.002]}},
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", path, "--out", str(out1)])
        main(["sweep", "--config", path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestCalibrate:
    def calibration_config(self, tmp_path):
        return write_config(
            tmp_path,
            {
                "input_p1": 0.5,
                "collapse": {"model": "diffusion", "t_c_mean": 1.0},
            },
            name="diffusion.json",
        )

    def test_calibrate_prints_gamma_and_ci(self, tmp_path, capsys):
        path = self.calibration_config(tmp_path)
        code = main(
            ["calibrate", "--config", path, "--tolerance", "0.1", "--runs", "512", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 1.0 < payload["gamma"] < 10.0
        lo, hi = payload["achieved_mean_ci95"]
        assert lo < payload["achieved_mean"] < hi
        assert abs(payload["achieved_mean"] - 1.0) < 0.2

    def test_same_seed_same_gamma(self, tmp_path, capsys):
        path = self.calibration_config(tmp_path)
        gammas = []
        for _ in range(2):
            main(["calibrate", "--config", path, "--tolerance", "0.1", "--runs", "512", "--json"])
            gammas.append(json.loads(capsys.readouterr().out)["gamma"])
        assert gammas[0] == gammas[1]

    def test_save_config_writes_gamma(self, tmp_path, capsys):
        path = self.calibration_config(tmp_path)
        saved = tmp_path / "calibrated.json"
        main(
            [
                "calibrate", "--config", path, "--tolerance", "0.1", "--runs", "512",
                "--save-config", str(saved), "--json",
            ]
        )
        gamma = json.loads(capsys.readouterr().out)["gamma"]
        text = saved.read_text()
        assert text.startswith('{\n  "') and text.endswith("}\n")
        updated = strict_loads(text)
        assert updated["collapse"]["gamma"] == gamma > 0.0
        assert main(["run", "--config", str(saved), "--json"]) == 0
        capsys.readouterr()

    def test_configured_gamma_is_ignored(self, tmp_path, capsys):
        # calibrate fits gamma itself: a gamma that run would reject as
        # inconsistent with t_c_mean changes nothing.
        args = ["--tolerance", "0.1", "--runs", "512", "--json"]
        main(["calibrate", "--config", self.calibration_config(tmp_path), *args])
        plain = json.loads(capsys.readouterr().out)
        path = write_config(
            tmp_path, {"input_p1": 0.5, "collapse": {"model": "diffusion", "t_c_mean": 1.0, "gamma": 2.0}}
        )
        assert main(["run", "--config", path]) == 1
        assert "collapse.gamma" in capsys.readouterr().err
        assert main(["calibrate", "--config", path, *args]) == 0
        assert json.loads(capsys.readouterr().out) == plain

    @pytest.mark.parametrize("p1", [0.0, 0.0005, 1.0])
    def test_weight_outside_the_band_is_named(self, tmp_path, capsys, p1):
        # The configured gamma is ignored, so the error names input_p1, not gamma.
        path = write_config(
            tmp_path, {"input_p1": p1, "collapse": {"model": "diffusion", "t_c_mean": 1.0, "gamma": 2.0}}
        )
        assert main(["calibrate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input_p1: calibrate needs input_p1 inside (epsilon, 1 - epsilon)")
        assert "gamma" not in err

    def test_wrong_model_is_an_error(self, config_path, capsys):
        assert main(["calibrate", "--config", config_path]) == 1
        assert "diffusion" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, extra, flags, keys",
    [
        ("run", {}, [], {"rng_stream", "resolved_config", "summary"}),
        (
            "sweep",
            {"sweep": {"param": "collapse.t_c_mean", "values": [1.0, 2.0]}},
            [],
            {"rng_stream", "sweep_param", "points"},
        ),
        (
            "calibrate",
            {"collapse": {"model": "diffusion", "t_c_mean": 1.0}},
            ["--tolerance", "0.1", "--runs", "512"],
            {
                "gamma", "t_c_target", "achieved_mean", "achieved_mean_ci95",
                "n_runs", "tolerance", "master_seed",
            },
        ),
    ],
)
def test_json_stdout_is_one_strict_line(tmp_path, capsys, verb, extra, flags, keys):
    path = write_config(tmp_path, {"n_trials": 100, **extra})
    assert main([verb, "--config", path, "--json", *flags]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    payload = strict_loads(out)
    assert set(payload) == keys
    if verb == "sweep":
        assert all(set(point) == {"sweep_value", "resolved_config", "summary"} for point in payload["points"])


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["explode"])
