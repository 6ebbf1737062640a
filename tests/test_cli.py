import csv
import importlib.util
import json
import math
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qscsim.cli as cli
from qscsim.cli import main
from qscsim.collapse import diffusion_gamma
from qscsim.config import expand_sweep, parse_config, set_config_field
from qscsim.errors import FieldError
from qscsim.protocol import SWEEP_ONLY
from qscsim.report import CSV_COLUMNS

BASE_CONFIG = {
    "master_seed": 42,
    "n_trials": 400,
    "collapse": {"model": "jump_exponential", "t_c_mean": 180.0},
    "observer": {"t_p": 0.001, "jitter_sigma": 0.0002},
    "scenario": {"tag": "post_collapse_only"},
    "rule": {"kind": "timing_threshold", "threshold_time": 0.05, "batch_n": 1},
}

#: Keys of each rate object in a --json summary, in order.
RATE_KEYS = ["successes", "trials", "estimate", "lo", "hi"]


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON literal {token}")

    return json.loads(text, parse_constant=reject)


def readme_csv_columns():
    """The column names README lists under "Fixed columns, in order"."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listing = readme.split("Fixed columns, in order:", 1)[1].split(".", 1)[0]
    return re.findall(r"`(\w+)`", listing)


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
        assert rows[0] == CSV_COLUMNS == readme_csv_columns()
        assert len(rows) == 2
        row = dict(zip(rows[0], rows[1]))
        assert row["master_seed"] == "42"
        assert row["n_trials"] == "400"
        assert row["sweep_param"] == ""
        assert row["device_success"] == ""
        assert float(row["acc_overall"]) >= 0.99

    @pytest.mark.parametrize("device", [False, True])
    @pytest.mark.parametrize("priors", [0.0, 0.5, 1.0])
    def test_text_summary_lines(self, tmp_path, capsys, priors, device):
        # A class with no trials reads n/a and has no mean-time line; the
        # device lines come only with the baseline, the csv line only with --out.
        path = write_config(tmp_path, {"priors": priors})
        flags = ["--device-baseline"] if device else []
        assert main(["run", "--config", path, "--json", *flags]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]

        def rate(label, key):
            r = summary[key]
            if not r["trials"]:
                return f"{label:<28}n/a (no trials)"
            return f"{label:<28}{r['estimate']:.6f}  [{r['lo']:.6f}, {r['hi']:.6f}]  ({r['successes']}/{r['trials']})"

        means = [
            f"{label:<28}{summary[key]:.6g} s"
            for label, key in (("mean report time (def)", "mean_report_time_definite"),
                               ("mean report time (sup)", "mean_report_time_superposition"))
            if summary[key] is not None
        ]
        device_lines = [
            rate("device success", "device_success"),
            f"{'optimal device bound':<28}{summary['device_bound']:.6f}",
        ] if device else []
        expected = [
            f"{'n_trials':<28}400",
            rate("accuracy (definite)", "accuracy_definite"),
            rate("accuracy (superposition)", "accuracy_superposition"),
            rate("accuracy (overall)", "accuracy_overall"),
            *means,
            *device_lines,
            f"{'master_seed':<28}42",
        ]
        assert len(means) == 1 + (priors == 0.5)
        assert main(["run", "--config", path, *flags]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        out = tmp_path / "result.csv"
        assert main(["run", "--config", path, "--out", str(out), *flags]) == 0
        assert capsys.readouterr().out.splitlines() == [*expected, f"csv written to {out}"]

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
            assert json.loads(outputs[0][0])["rng_stream"] == "block-v2"
        assert main(["run", "--config", run_path, "--threads", "0"]) == 1
        assert "--threads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, extra",
        [
            ("priors", {"priors": math.nan}),
            ("observer.jitter_sigma", {"observer": {"t_p": 0.001, "jitter_sigma": math.inf}}),
            ("collapse.t_c_mean", {"collapse": {"model": "jump_exponential", "t_c_mean": math.nan}}),
            ("sweep.values[1]", {"sweep": {"param": "priors", "values": [0.5, math.inf]}}),
            # integers beyond the float range
            ("priors", {"priors": 10**401}),
            ("master_seed", {"master_seed": 10**401}),
            ("collapse.t_c_mean", {"collapse": {"model": "jump_exponential", "t_c_mean": 10**401}}),
            ("sweep.values[0]", {"sweep": {"param": "priors", "values": [10**401]}}),
        ],
    )
    def test_non_finite_number_names_field(self, tmp_path, capsys, field, extra):
        path = write_config(tmp_path, extra)
        assert main(["run", "--config", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: must be finite") and captured.err.count("\n") == 1

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
        assert payload["rng_stream"] == "block-v2"
        assert payload["resolved_config"]["collapse"]["t_c_mean"] == 180.0
        summary = payload["summary"]
        assert list(summary) == [
            "n_trials", "accuracy_definite", "accuracy_superposition", "accuracy_overall",
            "mean_report_time_definite", "mean_report_time_superposition",
            "device_success", "device_bound", "master_seed",
        ]
        for key in ("accuracy_definite", "accuracy_superposition", "accuracy_overall"):
            assert list(summary[key]) == RATE_KEYS
        assert summary["device_success"] is None and summary["device_bound"] is None
        assert summary["n_trials"] == 400
        assert summary["accuracy_overall"]["estimate"] >= 0.99

    def test_device_baseline_flag(self, config_path, capsys):
        assert main(["run", "--config", config_path, "--json", "--device-baseline"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["summary"]["device_success"]) == RATE_KEYS
        success = payload["summary"]["device_success"]["estimate"]
        bound = payload["summary"]["device_bound"]
        assert 0.6 < success < 0.9
        assert bound == pytest.approx(0.8535533905932737)

    def test_missing_config_file_fails(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_key_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "repeated.json"
        path.write_text('{"master_seed": 1, "n_trials": 10, "n_trials": 1000}')
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config file {path} repeats the key 'n_trials' in one object\n"

    def test_oversized_batch_n_is_one_error_line(self, tmp_path, capsys):
        # Refused at parse time, not by a failed allocation of its block.
        path = write_config(tmp_path, {"n_trials": 2, "rule": {"kind": "timing_threshold", "batch_n": 10**15}})
        assert main(["run", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: rule.batch_n: must be in [1, 1024], got {10**15}\n"

    def test_invalid_config_names_field(self, tmp_path, capsys):
        path = write_config(tmp_path, {"collapse": {"t_c_mean": -1}})
        assert main(["run", "--config", path]) == 1
        assert "collapse.t_c_mean" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("collapse.energy", 2.0), ("collapse.kappa", 1.0), ("rule.no_change_guess", "definite"),
            ("observer.resolution", 0.01),
        ],
    )
    def test_removed_key_is_unknown(self, tmp_path, capsys, key, value):
        # No config key: t_c_mean and threshold_time are given directly, and
        # a batch in which no signal fires is always guessed definite.
        raw = set_config_field(BASE_CONFIG, key, value)
        with pytest.raises(FieldError) as err:
            parse_config(raw)
        assert err.value.field == key
        path = tmp_path / "removed.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {key}: unknown key\n"


SWEEP_JUMP = {"n_trials": 200, "collapse": {"model": "jump_exponential", "t_c_mean": 0.02}}


DIFFUSION_POINTS = {"input_p1": 0.3, "collapse": {"model": "diffusion", "t_c_mean": 0.02}}
RANDOM_PERCEPT = {
    "scenario": {"tag": "random_percept", "r": 0.3},
    "rule": {"kind": "combined", "threshold_time": 0.05, "batch_n": 2},
}
FIXED_C1 = {"scenario": {"tag": "fixed_c1"}, "rule": {"kind": "combined", "threshold_time": 0.05, "batch_n": 3}}
NO_JITTER = {"observer": {"t_p": 0.001, "jitter_sigma": 0.0}}


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

    @pytest.mark.parametrize("values", [[1.0], [3.0, 1.0, 2.0]])
    def test_streamed_json_is_the_canonical_document(self, tmp_path, capsys, values):
        # The points are written one at a time inside the envelope; the line
        # must still be exactly json.dumps of the whole document.
        path = write_config(tmp_path, {"n_trials": 100, "sweep": {"param": "collapse.t_c_mean", "values": values}})
        assert main(["sweep", "--config", path, "--json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        document = json.loads(out)
        assert list(document) == ["rng_stream", "sweep_param", "points"]
        assert len(document["points"]) == len(values)
        assert out == json.dumps(document, allow_nan=False) + "\n"

    def test_failing_sweep_prints_nothing(self, tmp_path, capsys, monkeypatch):
        # Every point runs before the first byte is written.
        def fail(configs):
            raise ValueError("kernel failed")

        path = write_config(tmp_path, {"n_trials": 100, "sweep": {"param": "collapse.t_c_mean", "values": [1.0, 2.0]}})
        monkeypatch.setattr(cli, "run_experiments", fail)
        assert main(["sweep", "--config", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: kernel failed\n"

    def test_memory_per_point_is_bounded(self, tmp_path, capsys):
        # The output is written one point at a time, so a point adds its
        # config, its summary and its printed line (about 2 KB), not its
        # share of the whole document held at once (about 12 KB).  The CLI
        # counterpart of the library's chunk-memory test in test_protocol.
        def peak(n_points):
            values = [0.001 * (k + 1) for k in range(n_points)]
            extra = {
                "n_trials": 100,
                "collapse": {"model": "deterministic_time", "t_c_mean": 1.0},
                "sweep": {"param": "collapse.t_c_mean", "values": values},
            }
            argv = ["sweep", "--config", write_config(tmp_path, extra, name=f"sweep-{n_points}.json"), "--json"]
            assert main(argv) == 0  # warm: imports and caches are not per point
            capsys.readouterr()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(400) - peak(100)) / 300 < 4096

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

    def test_same_seed_same_output(self, tmp_path, capsys):
        path = self.calibration_config(tmp_path)
        outputs = []
        for _ in range(2):
            assert main(["calibrate", "--config", path, "--tolerance", "0.1", "--runs", "512", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["gamma"] == diffusion_gamma(1.0, 0.5, 1e-3)
        assert payload["n_runs"] == 512
        lo, hi = payload["achieved_mean_ci95"]
        assert lo <= payload["achieved_mean"] <= hi
        assert lo <= 1.1 and hi >= 0.9

    def test_benchmark_sized_run_meets_its_tolerance(self, tmp_path, capsys):
        path = self.calibration_config(tmp_path)
        assert main(["calibrate", "--config", path, "--tolerance", "0.02", "--runs", "8192", "--json"]) == 0
        lo, hi = json.loads(capsys.readouterr().out)["achieved_mean_ci95"]
        assert 0.98 <= lo < hi <= 1.02

    def test_budget_rule_rejects_unreachable_tolerance(self, tmp_path, capsys):
        path = self.calibration_config(tmp_path)
        assert main(["calibrate", "--config", path, "--tolerance", "0.001", "--runs", "256"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"error: run budget too small for tolerance 0\.001: 3\*cv/sqrt\(n_runs\) = \d\.\d{4}; "
            r"need --runs >= \d+\n",
            captured.err,
        )

    @pytest.mark.parametrize("tolerance", ["1e-4", "1e-200", "1e-300", "5e-324"])
    def test_tolerance_near_zero_is_one_error_line(self, tmp_path, capsys, tolerance):
        # The run count the budget rule would ask for exceeds the --runs cap
        # of 2**22 (at 1e-4, about 2.9e8) or overflows a float.
        path = self.calibration_config(tmp_path)
        assert main(["calibrate", "--config", path, "--tolerance", tolerance, "--runs", "256"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            rf"error: run budget too small for tolerance {re.escape(repr(float(tolerance)))}: "
            r"3\*cv/sqrt\(n_runs\) = \d\.\d{4}; no --runs resolves it; raise --tolerance\n",
            captured.err,
        )

    def test_ci_missing_target_is_an_error(self, tmp_path, capsys, monkeypatch):
        def biased_sampler(p1, params, rng, n):
            times = np.full(n, 0.5)
            times[::2] = 0.6
            return times, np.zeros(n, dtype=bool)

        monkeypatch.setattr(cli, "sample_collapses", biased_sampler)
        path = self.calibration_config(tmp_path)
        assert main(["calibrate", "--config", path, "--tolerance", "0.05", "--runs", "4096"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 95% CI (") and "misses 1.0 by more than tolerance 0.05" in err

    def test_runs_must_be_at_least_two(self, tmp_path, capsys):
        path = self.calibration_config(tmp_path)
        assert main(["calibrate", "--config", path, "--runs", "1"]) == 1
        assert capsys.readouterr().err == "error: --runs must be in [2, 2**22], got 1\n"

    @pytest.mark.parametrize("runs", [2**22 + 1, 10**12])
    def test_runs_above_the_cap_are_refused_before_any_draw(self, tmp_path, capsys, monkeypatch, runs):
        def no_draws(*args):
            raise AssertionError("calibrate drew an ensemble")

        monkeypatch.setattr(cli, "sample_collapses", no_draws)
        assert main(["calibrate", "--config", self.calibration_config(tmp_path), "--runs", str(runs)]) == 1
        assert capsys.readouterr().err == f"error: --runs must be in [2, 2**22], got {runs}\n"

    def test_inconsistent_gamma_is_the_run_error(self, tmp_path, capsys):
        # calibrate reads the config as run does, so both refuse the same gamma.
        path = write_config(
            tmp_path, {"input_p1": 0.5, "collapse": {"model": "diffusion", "t_c_mean": 1.0, "gamma": 2.0}}
        )
        assert main(["run", "--config", path]) == 1
        run_err = capsys.readouterr().err
        assert run_err.startswith("error: collapse.gamma: 2.0 is inconsistent with t_c_mean 1.0: ")
        assert run_err.endswith("; omit gamma to use it\n") and run_err.count("\n") == 1
        assert main(["calibrate", "--config", path, "--tolerance", "0.1", "--runs", "512"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == run_err

    @pytest.mark.parametrize("p1", [0.0, 0.0005, 1.0])
    def test_weight_outside_the_band_is_named(self, tmp_path, capsys, p1):
        # Outside the band there is no gamma to calibrate, so the error names input_p1.
        path = write_config(tmp_path, {"input_p1": p1, "collapse": {"model": "diffusion", "t_c_mean": 1.0}})
        assert main(["calibrate", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input_p1: calibrate needs input_p1 inside (epsilon, 1 - epsilon)")
        assert "gamma" not in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("tolerance", ["inf", "-inf", "nan", "0"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tolerance, json_flag):
        path = self.calibration_config(tmp_path)
        # "--tolerance=-inf": argparse reads a separate "-inf" as an option.
        assert main(["calibrate", "--config", path, f"--tolerance={tolerance}", "--runs", "512", *json_flag]) == 1
        assert capsys.readouterr().err == f"error: --tolerance must be finite and > 0, got {float(tolerance)!r}\n"

    def test_out_is_not_an_option(self, tmp_path, capsys):
        # calibrate writes no CSV, so argparse refuses --out instead of ignoring it.
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--config", self.calibration_config(tmp_path), "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out.exists()

    def test_save_config_is_not_an_option(self, tmp_path, capsys):
        # parse_config already resolves an omitted gamma, so there is nothing to write back.
        saved = tmp_path / "calibrated.json"
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--config", self.calibration_config(tmp_path), "--save-config", str(saved)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --save-config" in capsys.readouterr().err
        assert not saved.exists()

    def test_text_lines_carry_the_json_values_and_gamma_ignores_the_seed(self, tmp_path, capsys):
        path = self.calibration_config(tmp_path)
        payloads = []
        for seed in ("3", "4"):
            assert main(["calibrate", "--config", path, "--seed", seed, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert main(["calibrate", "--config", path, "--seed", seed]) == 0
            lo, hi = payload["achieved_mean_ci95"]
            assert capsys.readouterr().out == (
                f"calibrated gamma            {payload['gamma']!r}\n"
                f"target mean collapse time   {payload['t_c_target']!r} s\n"
                f"achieved mean (n={payload['n_runs']})   {payload['achieved_mean']:.6g} s  "
                f"[95% CI {lo:.6g}, {hi:.6g}]\n"
            )
            assert payload["master_seed"] == int(seed)
            payloads.append(payload)
        assert payloads[0]["gamma"] == payloads[1]["gamma"] == diffusion_gamma(1.0, 0.5, 1e-3)
        assert payloads[0]["achieved_mean"] != payloads[1]["achieved_mean"]

    def test_ci_scales_with_a_tiny_t_c_mean(self, tmp_path, capsys):
        # At 1e-200 squared deviations of the times underflow; the CI must not collapse to a point.
        half_widths = []
        for t_c in (1.0, 1e-200):
            path = write_config(tmp_path, {"input_p1": 0.5, "collapse": {"model": "diffusion", "t_c_mean": t_c}})
            assert main(["calibrate", "--config", path, "--seed", "3", "--json"]) == 0
            lo, hi = json.loads(capsys.readouterr().out)["achieved_mean_ci95"]
            half_widths.append((hi - lo) / 2.0 / t_c)
        assert half_widths[1] == pytest.approx(half_widths[0], rel=1e-9)
        assert half_widths[0] > 0.0

    def test_wrong_model_names_the_field(self, config_path, capsys):
        assert main(["calibrate", "--config", config_path]) == 1
        assert capsys.readouterr().err == (
            "error: collapse.model: calibrate applies to the diffusion model; config selects jump_exponential\n"
        )


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


@pytest.mark.parametrize(
    "verb, extra, flags",
    [
        ("run", {}, ["--out"]),
        ("sweep", {"sweep": {"param": "collapse.t_c_mean", "values": [1.0, 2.0]}}, ["--out"]),
    ],
)
def test_unwritable_output_path_is_one_error_line(tmp_path, capsys, verb, extra, flags):
    path = write_config(tmp_path, {"n_trials": 100, **extra})
    target = tmp_path / "missing" / "out.txt"
    assert main([verb, "--config", path, "--json", *flags, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ") and captured.err.count("\n") == 1


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["explode"])


def test_benchmark_workloads_parse_and_their_argv_is_accepted(monkeypatch):
    # A config or CLI change that every benchmark op would trip on fails here instead.
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # The module defines a dataclass, which looks its module up in sys.modules;
    # no bytecode is written next to it.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(workloads)
    parser = cli._build_parser()
    declared = json.loads((root / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {workload["name"] for workload in declared}
    for name, workload in workloads.WORKLOADS.items():
        for seed in range(3):
            raw = workload.make_config(workloads.master_seed(name, seed, 0))
            assert parse_config(raw).master_seed == raw["master_seed"]
            if "sweep" in raw:
                assert len(expand_sweep(raw)) == len(raw["sweep"]["values"])
            for threads in (1, 2):
                args = parser.parse_args(workload.argv("config.json", "out.csv", threads))
                assert args.command == workload.verb and args.json


def test_readme_flags_match_the_parser():
    # Every --flag README names must exist, and every option must be documented.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [line for line in readme.read_text().splitlines() if "pip install" not in line]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", "\n".join(lines)))
    subparsers = cli._build_parser()._subparsers._group_actions[0].choices.values()
    options = {
        option
        for sub in subparsers
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == options


@pytest.mark.parametrize(
    "verb, extra, error",
    [
        (
            "run",
            {"collapse": {"model": "jump_exponential", "t_c_mean": 1e306}},
            "collapse.t_c_mean: must be <= 1e+100 s, got 1e+306",
        ),
        (
            "run",
            {"observer": {"t_p": 0.001, "jitter_sigma": 1e308}, "rule": {"kind": "timing_threshold"}},
            "observer.jitter_sigma: must be <= 1e+100 s, got 1e+308",
        ),
        (
            "run",
            {"input_p1": 0.3, "collapse": {"model": "diffusion", "t_c_mean": 1e-320}},
            "collapse.t_c_mean: 1e-320 is too small for diffusion from input_p1 0.3: the closed-form gamma overflows",
        ),
        (
            "run",
            {"input_p1": 0.3, "collapse": {"model": "diffusion", "t_c_mean": 1e-320, "gamma": 1.0}},
            "collapse.t_c_mean: 1e-320 is too small for diffusion from input_p1 0.3: the closed-form gamma overflows",
        ),
        (
            "run",
            {"rule": {"kind": "change_detection", "threshold_time": 0.05}},
            "rule.threshold_time: only meaningful for timing_threshold and combined",
        ),
        (
            "run",
            {"collapse": {"model": "jump_exponential", "epsilon": 0.001}},
            "collapse.epsilon: only meaningful for diffusion",
        ),
        (
            "run",
            {"input_p1": 1.0, "collapse": {"model": "diffusion", "gamma": 2.0}},
            "collapse.gamma: only meaningful for input_p1 inside (epsilon, 1 - epsilon), got 1.0",
        ),
        ("run", {"sweep": {"param": "collapse.t_c_mean", "values": [1.0, 2.0]}}, f"sweep: {SWEEP_ONLY}"),
        (
            "calibrate",
            {
                "collapse": {"model": "diffusion", "t_c_mean": 1.0},
                "sweep": {"param": "collapse.t_c_mean", "values": [0.5, 2.0]},
            },
            f"sweep: {SWEEP_ONLY}",
        ),
    ],
    ids=[
        "t_c_mean", "jitter_sigma", "tiny_t_c_mean_gamma_omitted", "tiny_t_c_mean_gamma_given",
        "unread_threshold_time", "unread_epsilon", "unread_gamma", "run_sweep", "calibrate_sweep",
    ],
)
def test_refused_config_is_one_error_line_naming_its_field(tmp_path, capsys, verb, extra, error):
    # A huge time would overflow the report-time sums (or the default
    # threshold) to inf, so it is refused before anything is written; so is
    # a diffusion t_c_mean small enough to overflow the closed-form gamma,
    # a field set where the config does not read it, and a sweep outside
    # the sweep verb, whose base values are none of its points.
    path = write_config(tmp_path, extra)
    out = tmp_path / "out.csv"
    flags = ["--out", str(out)] if verb == "run" else []
    assert main([verb, "--config", path, "--json", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert not out.exists()
