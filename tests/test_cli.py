"""Command-line interface: loading, commands, exit codes, output formats."""

import ast
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import wcox
import wcox.cli
import wcox.marginal_cox
import wcox.simulation
from conftest import random_survival_cohort
from wcox import EstimandResult
from wcox.cli import main

GOLDEN_HR = (np.sqrt(5.0) - 1.0) / 2.0


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


@pytest.fixture()
def four_unit_csv(tmp_path):
    path = tmp_path / "four.csv"
    _write_csv(
        path,
        ["t", "d", "z"],
        [(1.0, 1, 1), (2.0, 1, 0), (3.0, 1, 0), (4.0, 1, 1)],
    )
    return str(path)


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    co = random_survival_cohort(np.random.default_rng(60), n=120, j=2, p=3)
    path = tmp_path_factory.mktemp("data") / "cohort.csv"
    rows = [
        (co.time[i], co.event[i], co.treatment[i], *co.covariates[i])
        for i in range(co.n)
    ]
    _write_csv(path, ["t", "d", "z", "x1", "x2", "x3"], rows)
    return str(path)


@pytest.fixture(scope="module")
def no_events_in_group_2_csv(tmp_path_factory):
    co = random_survival_cohort(np.random.default_rng(62), n=200, j=2, p=3)
    event = np.where(co.treatment == 2, 0, co.event)
    path = tmp_path_factory.mktemp("data") / "no_events.csv"
    rows = [
        (co.time[i], event[i], co.treatment[i], *co.covariates[i])
        for i in range(co.n)
    ]
    _write_csv(path, ["t", "d", "z", "x1", "x2", "x3"], rows)
    return str(path)


@pytest.fixture(scope="module")
def two_events_in_group_2_csv(tmp_path_factory):
    """Group 2 keeps two of its events, so about one resample in e^2 has
    none and its bootstrap replicate is dropped under "cox"."""
    co = random_survival_cohort(np.random.default_rng(60), n=120, j=2, p=3)
    event = np.array(co.event)
    event[np.flatnonzero((co.treatment == 2) & (event == 1))[2:]] = 0
    path = tmp_path_factory.mktemp("data") / "two_events.csv"
    rows = [
        (co.time[i], event[i], co.treatment[i], *co.covariates[i])
        for i in range(co.n)
    ]
    _write_csv(path, ["t", "d", "z", "x1", "x2", "x3"], rows)
    return str(path)


@pytest.fixture()
def factorial_csv(tmp_path):
    rng = np.random.default_rng(61)
    n = 60
    z1 = rng.integers(0, 2, n)
    z2 = rng.integers(0, 2, n)
    t = rng.exponential(1.0, n) + 0.05
    d = rng.integers(0, 2, n)
    d[:8] = 1  # keep events in every cell
    path = tmp_path / "fact.csv"
    rows = [(t[i], d[i], z1[i], z2[i]) for i in range(n)]
    _write_csv(path, ["t", "d", "z1", "z2"], rows)
    return str(path)


class TestFit:
    def test_four_unit_example(self, four_unit_csv, capsys):
        code = main(
            [
                "fit",
                four_unit_csv,
                "--time",
                "t",
                "--event",
                "d",
                "--treatment",
                "z",
                "--weight-scheme",
                "unit",
                "--variance",
                "none",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 4 and out["n_events"] == 4
        assert out["groups"] == ["0", "1"]
        assert out["variance_method"] == "none"
        (est,) = out["estimates"]
        assert est["group"] == "1" and est["vs"] == "0"
        assert est["hr"] == pytest.approx(GOLDEN_HR, abs=1e-9)
        assert est["tau"] == pytest.approx(np.log(GOLDEN_HR), abs=1e-9)
        assert est["se"] is None and est["ci_low"] is None
        assert out["cov_tau"] is None
        assert out["propensity"] is None and out["trim"] is None
        assert out["manifest"]["command"] == "fit"

    def test_ipw_robust_json_fields(self, cohort_csv, capsys):
        args = [
            "fit",
            cohort_csv,
            "--time",
            "t",
            "--event",
            "d",
            "--treatment",
            "z",
            "--covariates",
            "x1,x2,x3",
        ]
        assert main(args) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["variance_method"] == "robust"
        assert len(out["estimates"]) == 2
        assert len(out["cov_tau"]) == 2 and len(out["cov_tau"][0]) == 2
        for est in out["estimates"]:
            assert est["se"] > 0
            assert est["ci_low"] < est["hr"] < est["ci_high"]
        assert out["propensity"]["iterations"] >= 1
        assert out["propensity"]["ridged"] is False
        assert list(out["manifest"]["inputs"]) == [cohort_csv]
        assert len(out["manifest"]["inputs"][cohort_csv]) == 64

    def test_stdout_is_deterministic(self, cohort_csv, capsys):
        args = [
            "fit",
            cohort_csv,
            "--time",
            "t",
            "--event",
            "d",
            "--treatment",
            "z",
            "--covariates",
            "x1,x2,x3",
            "--weight-scheme",
            "ow",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_out_json_mirrors_stdout(self, cohort_csv, tmp_path, capsys):
        target = tmp_path / "fit.json"
        args = [
            "fit",
            cohort_csv,
            "--time",
            "t",
            "--event",
            "d",
            "--treatment",
            "z",
            "--covariates",
            "x1,x2,x3",
            "--out-json",
            str(target),
        ]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        assert target.read_text() == stdout

    def test_bootstrap_variance_needs_seed(self, cohort_csv, capsys):
        args = [
            "fit",
            cohort_csv,
            "--time",
            "t",
            "--event",
            "d",
            "--treatment",
            "z",
            "--covariates",
            "x1,x2,x3",
            "--variance",
            "bootstrap:20",
        ]
        assert main(args) == 2
        assert "--seed is required" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "1", "-3"])
    def test_bootstrap_under_two_replicates_exits_two(self, cohort_csv, capsys, count):
        code = main(
            ["fit", cohort_csv, "--time", "t", "--event", "d", "--treatment", "z",
             "--covariates", "x1,x2,x3", "--variance", f"bootstrap:{count}",
             "--seed", "5"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "bootstrap needs at least 2 replicates" in captured.err

    def test_bootstrap_variance_runs_with_seed(self, cohort_csv, capsys):
        args = [
            "fit",
            cohort_csv,
            "--time",
            "t",
            "--event",
            "d",
            "--treatment",
            "z",
            "--covariates",
            "x1,x2,x3",
            "--variance",
            "bootstrap:12",
            "--seed",
            "5",
        ]
        assert main(args) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["variance_method"] == "bootstrap"
        assert out["bootstrap"]["replicates"] == 12
        assert out["manifest"]["seed"] == 5

    def test_bootstrap_drop_reasons_go_to_stderr(
        self, two_events_in_group_2_csv, tmp_path, capsys
    ):
        target = tmp_path / "fit.json"
        args = [
            "fit", two_events_in_group_2_csv, "--time", "t", "--event", "d",
            "--treatment", "z", "--covariates", "x1,x2,x3",
            "--weight-scheme", "ow", "--variance", "bootstrap:20", "--seed", "1",
            "--out-json", str(target),
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["bootstrap"] == {"replicates": 20, "dropped": 2}
        assert "wcox: bootstrap dropped 2 of 20 replicates (cox 2)" in captured.err
        assert target.read_text() == captured.out

    def test_trim_block_in_output(self, cohort_csv, capsys):
        args = [
            "fit",
            cohort_csv,
            "--time",
            "t",
            "--event",
            "d",
            "--treatment",
            "z",
            "--covariates",
            "x1,x2,x3",
            "--trim",
            "0.1",
            "--variance",
            "none",
        ]
        assert main(args) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["trim"]["threshold"] == 0.1
        assert out["trim"]["n_removed"] > 0
        assert out["trim"]["n_after"] + out["trim"]["n_removed"] == 120
        assert out["trim"]["refitted"] is True

    def test_trim_without_refit(self, cohort_csv, capsys):
        args = [
            "fit",
            cohort_csv,
            "--time",
            "t",
            "--event",
            "d",
            "--treatment",
            "z",
            "--covariates",
            "x1,x2,x3",
            "--trim",
            "0.1",
            "--no-trim-refit",
        ]
        assert main(args) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["trim"]["n_removed"] > 0
        assert out["trim"]["refitted"] is False
        assert out["n"] == out["trim"]["n_after"]
        for est in out["estimates"]:
            assert est["se"] > 0

    @pytest.mark.parametrize("refit", [True, False])
    def test_trim_frees_the_untrimmed_cohort_before_the_cox_fit(
        self, cohort_csv, capsys, monkeypatch, refit
    ):
        # the untrimmed cohort keeps its propensity fit, so holding it
        # through the Cox and sandwich stages raises the peak memory
        loaded, alive = [], []
        load, fit_mhr = wcox.cli._load_cohort, wcox.marginal_cox.fit_mhr

        def recording_load(args):
            cohort, names = load(args)
            loaded.append(weakref.ref(cohort))
            return cohort, names

        def checking_fit_mhr(cohort, weights):
            gc.collect()
            alive.append(loaded[0]() is not None)
            return fit_mhr(cohort, weights)

        monkeypatch.setattr(wcox.cli, "_load_cohort", recording_load)
        monkeypatch.setattr(wcox.marginal_cox, "fit_mhr", checking_fit_mhr)
        args = ["fit", cohort_csv, "--time", "t", "--event", "d", "--treatment", "z",
                "--covariates", "x1,x2,x3", "--trim", "0.1"]
        assert main(args + ([] if refit else ["--no-trim-refit"])) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["trim"]["n_removed"] > 0
        assert alive == [False]

    def test_level_is_reported_without_a_variance(self, four_unit_csv, capsys):
        code = main(
            ["fit", four_unit_csv, "--time", "t", "--event", "d", "--treatment", "z",
             "--weight-scheme", "unit", "--variance", "none", "--level", "0.9"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ci_level"] == 0.9
        (est,) = out["estimates"]
        assert est["ci_low"] is None and est["ci_high"] is None

    @pytest.mark.parametrize("variance", ["robust", "bootstrap:5", "none"])
    @pytest.mark.parametrize("level", ["0", "1", "1.5"])
    def test_level_outside_unit_interval_exits_two(
        self, cohort_csv, capsys, variance, level
    ):
        code = main(
            ["fit", cohort_csv, "--time", "t", "--event", "d", "--treatment", "z",
             "--covariates", "x1,x2,x3", "--variance", variance, "--seed", "1",
             "--level", level]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "confidence level must lie in (0, 1)" in captured.err

    def test_aliased_covariate_gets_finite_se(self, tmp_path, capsys):
        # x2 = 2 x1: the propensity information is singular, the fit is
        # ridged, and the robust variance still exists
        co = random_survival_cohort(np.random.default_rng(63), n=200, j=2, p=2)
        x1, x3 = co.covariates.T
        path = tmp_path / "aliased.csv"
        rows = [
            (co.time[i], co.event[i], co.treatment[i], x1[i], 2.0 * x1[i], x3[i])
            for i in range(co.n)
        ]
        _write_csv(path, ["t", "d", "z", "x1", "x2", "x3"], rows)
        for scheme in ("ipw", "ow"):
            code = main(
                ["fit", str(path), "--time", "t", "--event", "d", "--treatment",
                 "z", "--covariates", "x1,x2,x3", "--weight-scheme", scheme]
            )
            out, err = capsys.readouterr()
            assert code == 0, err
            se = [est["se"] for est in json.loads(out)["estimates"]]
            assert len(se) == 2 and np.all(np.isfinite(se)), se


def _load(path, time="t", covariates=""):
    args = wcox.cli.build_parser().parse_args(
        ["fit", str(path), "--time", time, "--event", "d", "--treatment", "z",
         "--covariates", covariates]
    )
    return wcox.cli._load_cohort(args)


def _fit_error(path, capsys, time="t", covariates=""):
    """The message of a `wcox fit` that exits 2, checking the whole stderr."""
    code = main(
        ["fit", str(path), "--time", time, "--event", "d", "--treatment", "z",
         "--covariates", covariates]
    )
    assert code == 2
    error, duration = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"wcox: fit finished in \d+\.\d{3}s", duration), duration
    assert error.startswith("wcox: error: "), error
    return error[len("wcox: error: "):]


class TestLoadingErrors:
    def test_missing_column_names_the_column(self, four_unit_csv, capsys):
        code = main(
            ["fit", four_unit_csv, "--time", "time", "--event", "d",
             "--treatment", "z"]
        )
        assert code == 2
        assert "'time' not found" in capsys.readouterr().err

    def test_treatment_xor_factors(self, four_unit_csv, capsys):
        code = main(
            ["fit", four_unit_csv, "--time", "t", "--event", "d",
             "--treatment", "z", "--z1", "z", "--z2", "z"]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err
        code = main(["fit", four_unit_csv, "--time", "t", "--event", "d"])
        assert code == 2
        assert "--z1 and --z2" in capsys.readouterr().err

    def test_unparseable_value_points_at_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        _write_csv(path, ["t", "d", "z"], [(1.0, 1, 0), ("soon", 1, 1)])
        assert _fit_error(path, capsys) == (
            f"{path}: row 2: cannot parse 't' value 'soon'"
        )

    def test_empty_value_points_at_row(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        _write_csv(path, ["t", "d", "z"], [(1.0, 1, 0), (2.0, "", 1)])
        assert _fit_error(path, capsys) == f"{path}: row 2: empty value in 'd'"

    def test_missing_column_message(self, four_unit_csv, capsys):
        assert _fit_error(four_unit_csv, capsys, time="time") == (
            f"{four_unit_csv}: column 'time' not found (header: ['t', 'd', 'z'])"
        )

    @pytest.mark.parametrize("text", ["t,d,z\n", "t,d,z", "t,d,z\n\n\n"])
    def test_header_without_rows(self, tmp_path, capsys, text):
        path = tmp_path / "header.csv"
        path.write_text(text, encoding="utf-8")
        assert _fit_error(path, capsys) == f"{path}: no data rows"

    @pytest.mark.parametrize("text", ["", "\n", "\nt,d,z\n1.0,1,0\n"])
    def test_missing_header(self, tmp_path, capsys, text):
        # a blank first line is an empty header, as csv.DictReader reads it
        path = tmp_path / "noheader.csv"
        path.write_text(text, encoding="utf-8")
        assert _fit_error(path, capsys) == f"{path}: header row required"

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"t,d,z\n1.0,1,0\n2.0,1,1\n\xff,1,0\n")
        assert _fit_error(path, capsys) == (
            f"{path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 22: invalid start byte"
        )

    def test_utf8_error_comes_before_header_and_cell_errors(self, tmp_path, capsys):
        # the whole file is decoded before any column is looked at
        path = tmp_path / "late.csv"
        path.write_bytes(b"\nt,d,z\nsoon,1,0\n" + b"1.0,1,0\n" * 3000 + b"\xfe\n")
        assert _fit_error(path, capsys).startswith(f"{path} is not valid UTF-8: ")

    def test_short_row_is_an_empty_value_never_nan(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("t,d,z,x\n1.0,1,0,0.5\n2.0,1,1\n", encoding="utf-8")
        assert _fit_error(path, capsys, covariates="x") == (
            f"{path}: row 2: empty value in 'x'"
        )
        path.write_text("t,d,z\n1.0,1,0\n2.0\n", encoding="utf-8")
        assert _fit_error(path, capsys) == f"{path}: row 2: empty value in 'd'"

    def test_blank_lines_are_skipped_and_not_counted(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text(
            "t,d,z\n\n1.0,1,1\n2.0,1,0\n\n\n3.0,1,0\n4.0,1,1\n\n", encoding="utf-8"
        )
        cohort, _ = _load(path)
        np.testing.assert_array_equal(cohort.time, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(cohort.treatment, [1, 0, 0, 1])
        path.write_text("t,d,z\n\n1.0,1,1\n\n2.0,1,0\n\nsoon,1,0\n", encoding="utf-8")
        assert _fit_error(path, capsys) == (
            f"{path}: row 3: cannot parse 't' value 'soon'"
        )

    def test_repeated_header_name_takes_the_last_column(self, tmp_path):
        path = tmp_path / "twice.csv"
        _write_csv(
            path,
            ["t", "d", "z", "t"],
            [("soon", 1, 1, 1.0), ("", 1, 0, 2.0), ("x", 1, 0, 3.0), (0, 1, 1, 4.0)],
        )
        cohort, _ = _load(path)
        np.testing.assert_array_equal(cohort.time, [1.0, 2.0, 3.0, 4.0])

    def test_cells_are_read_with_python_float(self, tmp_path, capsys):
        path = tmp_path / "spellings.csv"
        cells = ["1_0", " 1.5 ", "2.5e0", "\t7\t"]
        _write_csv(
            path,
            ["t", "d", "z", "x"],
            [(c, " 1 ", k % 2, c) for k, c in enumerate(cells)],
        )
        cohort, _ = _load(path, covariates="x")
        expected = [float(c) for c in cells]
        np.testing.assert_array_equal(cohort.time, expected)
        np.testing.assert_array_equal(cohort.covariates[:, 0], expected)
        np.testing.assert_array_equal(cohort.event, [1, 1, 1, 1])
        # inf is a number: it is the cohort check that refuses it
        _write_csv(path, ["t", "d", "z"], [(1.0, 1, 0), ("inf", 1, 1), (2.0, 1, 1)])
        assert _fit_error(path, capsys) == (
            "times must be positive and finite; offending rows [1]"
        )

    def test_earlier_column_wins_across_blocks(self, tmp_path, capsys):
        # 40000 rows span several blocks of the reader: the bad event cell
        # sits in an early block, the bad time cell in a late one, and the
        # time column is checked first
        rows = [(1.0 + k, 1, k % 2) for k in range(40_000)]
        rows[4] = (5.0, "yes", 0)
        rows[38_999] = ("later", 1, 1)
        path = tmp_path / "long.csv"
        _write_csv(path, ["t", "d", "z"], rows)
        assert _fit_error(path, capsys) == (
            f"{path}: row 39000: cannot parse 't' value 'later'"
        )
        rows[38_999] = (39_000.0, 1, 1)
        _write_csv(path, ["t", "d", "z"], rows)
        assert _fit_error(path, capsys) == (
            f"{path}: row 5: cannot parse 'd' value 'yes'"
        )

    def test_missing_factorial_cell(self, tmp_path, capsys):
        path = tmp_path / "threecells.csv"
        rows = [(1.0, 1, 0, 0), (2.0, 1, 1, 0), (3.0, 1, 0, 1), (4.0, 1, 0, 0)]
        _write_csv(path, ["t", "d", "z1", "z2"], rows)
        code = main(
            ["fit", str(path), "--time", "t", "--event", "d",
             "--z1", "z1", "--z2", "z2"]
        )
        assert code == 2
        assert "(1,1)" in capsys.readouterr().err

    def test_factorial_cohort_loads_with_cell_labels(self, factorial_csv, capsys):
        code = main(
            ["fit", factorial_csv, "--time", "t", "--event", "d",
             "--z1", "z1", "--z2", "z2", "--weight-scheme", "unit",
             "--variance", "none"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["groups"] == ["(0,0)", "(1,0)", "(0,1)", "(1,1)"]
        assert [e["group"] for e in out["estimates"]] == ["(1,0)", "(0,1)", "(1,1)"]


_LONG_ROWS = 50_000
_LONG_FLAGS = ["--time", "time", "--event", "event", "--z1", "z1", "--z2", "z2",
               "--covariates", "x1,x2,x3,x4,x5,x6"]


@pytest.fixture(scope="module")
def long_csv(tmp_path_factory):
    # the layout of the cohort-cli benchmark CSV: a factorial cohort with
    # three continuous and three binary covariates
    rng = np.random.default_rng(71)
    n = _LONG_ROWS
    x = np.hstack([rng.standard_normal((n, 3)), rng.integers(0, 2, (n, 3)) - 0.5])
    data = np.column_stack(
        [rng.exponential(1.0, n) + 1e-3, rng.random(n) < 0.75,
         rng.integers(0, 2, n), rng.integers(0, 2, n), x]
    )
    path = tmp_path_factory.mktemp("data") / "long.csv"
    np.savetxt(
        path, data, fmt=["%.17g", "%d", "%d", "%d"] + ["%.17g"] * 6,
        delimiter=",", header="time,event,z1,z2,x1,x2,x3,x4,x5,x6", comments="",
    )
    return path


class TestColumnReader:
    """The reader parses blocks of rows column by column."""

    def _args(self, path):
        return wcox.cli.build_parser().parse_args(["fit", str(path)] + _LONG_FLAGS)

    def test_blocks_read_every_cell_as_python_float(self, long_csv):
        assert _LONG_ROWS > 2 * wcox.cli._BLOCK_ROWS
        cohort, _ = wcox.cli._load_cohort(self._args(long_csv))
        with open(long_csv, encoding="utf-8") as fh:
            next(fh)
            cells = np.array([[float(c) for c in line.split(",")] for line in fh])
        np.testing.assert_array_equal(cohort.time, cells[:, 0])
        np.testing.assert_array_equal(cohort.event, cells[:, 1])
        np.testing.assert_array_equal(cohort.treatment, cells[:, 2] + 2 * cells[:, 3])
        np.testing.assert_array_equal(cohort.covariates, cells[:, 4:])

    def test_peak_memory_is_a_small_multiple_of_the_cohort(self, long_csv):
        # a reader holding every row as strings peaks at about 14x the
        # bytes of the arrays it returns
        args = self._args(long_csv)
        tracemalloc.start()
        try:
            cohort, _ = wcox.cli._load_cohort(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(
            a.nbytes
            for a in (cohort.time, cohort.event, cohort.treatment, cohort.covariates)
        )
        assert peak <= 4 * held, (peak, held)


@pytest.mark.parametrize(
    "command", [["fit", "--variance", "robust"], ["km"], ["balance"]], ids=lambda c: c[0]
)
def test_stdout_does_not_depend_on_the_blas_threads(long_csv, command):
    # at 50000 rows the propensity information and the sandwich are sums
    # of BLAS products over several 16384-unit chunks; the thread count
    # OpenBLAS may use must not reach stdout
    src = str(Path(wcox.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "wcox.cli", command[0], str(long_csv)]
    argv += _LONG_FLAGS + ["--weight-scheme", "ow"] + command[1:]
    outs = [
        subprocess.run(
            argv,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, timeout=600, check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1]


class TestKm:
    def test_stdout_csv_then_manifest(self, cohort_csv, capsys):
        code = main(
            ["km", cohort_csv, "--time", "t", "--event", "d", "--treatment", "z",
             "--covariates", "x1,x2,x3", "--weight-scheme", "ow"]
        )
        assert code == 0
        out = capsys.readouterr().out
        head, brace, tail = out.partition("{")
        assert head.startswith(
            "group,time,survival,cum_risk,weighted_at_risk,weighted_events\n"
        )
        manifest = json.loads(brace + tail)
        assert manifest["manifest"]["command"] == "km"

    def test_csv_and_svg_files(self, cohort_csv, tmp_path, capsys):
        out_csv = tmp_path / "km.csv"
        out_svg = tmp_path / "km.svg"
        code = main(
            ["km", cohort_csv, "--time", "t", "--event", "d", "--treatment", "z",
             "--covariates", "x1,x2,x3", "--out-csv", str(out_csv),
             "--out-svg", str(out_svg)]
        )
        assert code == 0
        capsys.readouterr()
        rows = list(csv.DictReader(out_csv.open()))
        assert {r["group"] for r in rows} == {"0", "1", "2"}
        assert all(0.0 <= float(r["survival"]) <= 1.0 for r in rows)
        root = ET.fromstring(out_svg.read_text())
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polys) == 3

    def test_cumulative_svg_label(self, cohort_csv, tmp_path, capsys):
        out_svg = tmp_path / "risk.svg"
        code = main(
            ["km", cohort_csv, "--time", "t", "--event", "d", "--treatment", "z",
             "--covariates", "x1,x2,x3", "--out-svg", str(out_svg), "--cumulative"]
        )
        assert code == 0
        capsys.readouterr()
        assert "cumulative risk" in out_svg.read_text()


    def test_group_without_events_needs_no_cox_fit(
        self, no_events_in_group_2_csv, capsys
    ):
        flags = [no_events_in_group_2_csv, "--time", "t", "--event", "d",
                 "--treatment", "z", "--covariates", "x1,x2,x3"]
        assert main(["km", *flags]) == 0
        out = capsys.readouterr().out
        groups = {line.split(",")[0] for line in out.partition("{")[0].splitlines()[1:]}
        assert groups == {"0", "1", "2"}
        assert main(["fit", *flags]) == 3
        assert "no observed events in group(s) ['2']" in capsys.readouterr().err


class TestBalance:
    def test_stdout_table_and_summary(self, cohort_csv, capsys):
        code = main(
            ["balance", cohort_csv, "--time", "t", "--event", "d",
             "--treatment", "z", "--covariates", "x1,x2,x3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        head, brace, tail = out.partition("{")
        lines = head.strip().split("\n")
        assert lines[0] == "covariate,group_a,group_b,smd_unweighted,smd_weighted"
        # 3 covariates x 3 group pairs
        assert len(lines) == 1 + 9
        assert {ln.split(",")[0] for ln in lines[1:]} == {"x1", "x2", "x3"}
        summary = json.loads(brace + tail)
        assert summary["max_abs_smd_weighted"] is not None

    def test_balance_requires_covariates(self, cohort_csv, capsys):
        code = main(
            ["balance", cohort_csv, "--time", "t", "--event", "d",
             "--treatment", "z"]
        )
        assert code == 2
        assert "--covariates" in capsys.readouterr().err

    def test_histogram_file(self, cohort_csv, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        code = main(
            ["balance", cohort_csv, "--time", "t", "--event", "d",
             "--treatment", "z", "--covariates", "x1,x2",
             "--out-histogram", str(hist)]
        )
        assert code == 0
        capsys.readouterr()
        rows = list(csv.DictReader(hist.open()))
        assert set(rows[0]) == {"component", "group", "bin_low", "bin_high", "count"}
        # per (component, group) the counts sum to that group's size
        by_pair = {}
        for r in rows:
            key = (r["component"], r["group"])
            by_pair[key] = by_pair.get(key, 0) + int(r["count"])
        sizes = {g: s for (_, g), s in by_pair.items()}
        assert sum(sizes.values()) == 120
        for (comp, g), total in by_pair.items():
            assert total == sizes[g]

    def test_unit_histogram_without_trim_writes_nothing(
        self, cohort_csv, tmp_path, capsys
    ):
        # unit weights without --trim fit no propensity model, so there is
        # no histogram; the command must fail before writing the table
        table = tmp_path / "smd.csv"
        hist = tmp_path / "hist.csv"
        args = ["balance", cohort_csv, "--time", "t", "--event", "d",
                "--treatment", "z", "--covariates", "x1,x2,x3",
                "--weight-scheme", "unit", "--out-histogram", str(hist)]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "propensity histogram needs a fitted model" in err
        assert main([*args, "--out-csv", str(table)]) == 2
        assert capsys.readouterr().out == ""
        assert not table.exists() and not hist.exists()

    def test_group_without_events_needs_no_cox_fit(
        self, no_events_in_group_2_csv, capsys
    ):
        code = main(
            ["balance", no_events_in_group_2_csv, "--time", "t", "--event", "d",
             "--treatment", "z", "--covariates", "x1,x2,x3", "--weight-scheme", "ow"]
        )
        assert code == 0
        head = capsys.readouterr().out.partition("{")[0]
        assert len(head.strip().split("\n")) == 1 + 9


def _fake_estimand(setting, scheme, psi, m=2_000_000, seed=0, *, alpha=None,
                   att_target=None):
    j = 2 if setting == "multi3" else 3
    tau = np.linspace(0.15, -0.1, j)
    return EstimandResult(
        setting=setting,
        scheme=scheme,
        psi=float(psi),
        tau_star=tau,
        m=int(m),
        seed=seed,
        t0=3.0,
        alpha=alpha,
    )


class TestSimulate:
    def test_config_file_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(wcox.simulation, "true_estimand", _fake_estimand)
        cfg = tmp_path / "cell.conf"
        cfg.write_text(
            "# desk-scale cell\n"
            "setting = multi3\n"
            "psi = 1.0\n"
            "n = 150\n"
            "replicates = 4\n"
            "bootstrap_b = 8\n"
            "seed = 321\n"
        )
        out_csv = tmp_path / "report.csv"
        code = main(["simulate", "--config", str(cfg), "--out-csv", str(out_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Method" in out and "ipw" in out and "multivariable" in out
        payload = json.loads("{" + out.split("\n{", 1)[1])
        assert set(payload["estimands"]) == {"1:ipw", "1:ow"}
        assert payload["failed_replicates"] == {"1/0.25": 0}
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0].startswith("setting,psi,censoring")
        assert len(lines) == 1 + 8

    def test_flag_overrides_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(wcox.simulation, "true_estimand", _fake_estimand)
        cfg = tmp_path / "cell.conf"
        cfg.write_text("setting = multi3\nn = 150\nreplicates = 4\n")
        code = main(
            ["simulate", "--config", str(cfg), "--replicates", "3",
             "--bootstrap-B", "8", "--seed", "11"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replicates=3" in out

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cell.conf"
        cfg.write_text("setting = multi3\nworkers = 4\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "unknown scenario key" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "cell.conf"
        cfg.write_text("setting multi3\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "expected key = value" in capsys.readouterr().err

    def test_non_finite_psi_exits_two(self, capsys):
        assert main(["simulate", "--setting", "multi3", "--psi", "inf"]) == 2
        assert "psi must be positive and finite" in capsys.readouterr().err

    def test_study_abort_exits_four(self, capsys, monkeypatch):
        monkeypatch.setattr(wcox.simulation, "true_estimand", _fake_estimand)
        code = main(
            ["simulate", "--setting", "multi3", "--n", "12",
             "--replicates", "3", "--bootstrap-B", "8", "--seed", "2"]
        )
        assert code == 4
        assert "study aborted" in capsys.readouterr().err

    def test_failed_replicates_are_explained_on_stderr(self, capsys, monkeypatch):
        # at n = 60 one of 40 replicates fails (its bootstrap is unstable),
        # which stays under the 5% abort limit
        monkeypatch.setattr(wcox.simulation, "true_estimand", _fake_estimand)
        argv = ["simulate", "--setting", "multi3", "--n", "60",
                "--replicates", "40", "--bootstrap-B", "8", "--seed", "1"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        payload = json.loads("{" + out.split("\n{", 1)[1])
        assert payload["failed_replicates"] == {"1/0.25": 1}
        lines = [line for line in err.splitlines() if "replicates failed" in line]
        assert lines == [
            "wcox: cell 1/0.25: 1 of 40 replicates failed with StudyError: "
            "bootstrap unstable: 3 of 8 replicates dropped ({'propensity': 3})"
        ]

    def test_full_grid_computes_each_estimand_once(self, capsys, monkeypatch):
        # tau* and the intercepts depend on psi but not on the censoring
        # level; the calibrations and the replicates are stubbed, so only
        # the calls are counted
        calls, calibrations = [], []

        def counting_estimand(setting, scheme, psi, *args, **kwargs):
            calls.append((scheme, psi))
            return _fake_estimand(setting, scheme, psi, *args, **kwargs)

        def counting_intercepts(setting, psi):
            calibrations.append((setting, psi))
            return 0.0

        estimates = tuple(
            {m: np.full(2, v) for m in wcox.simulation._METHODS} for v in (0.1, 0.2, 0.2)
        )
        monkeypatch.setattr(wcox.simulation, "true_estimand", counting_estimand)
        monkeypatch.setattr(wcox.simulation, "calibrate_intercepts", counting_intercepts)
        monkeypatch.setattr(wcox.simulation, "calibrate_censoring", lambda *a: 0.1)
        monkeypatch.setattr(wcox.simulation, "_replicate_estimates", lambda *a: estimates)
        monkeypatch.setenv("WCOX_THREADS", "1")
        argv = ["simulate", "--setting", "multi3", "--full-grid", "--replicates", "2"]
        assert main(argv) == 0
        assert sorted(calls) == [
            (scheme, psi) for scheme in ("ipw", "ow") for psi in (1.0, 2.0, 3.0)
        ]
        assert sorted(calibrations) == [("multi3", psi) for psi in (1.0, 2.0, 3.0)]
        payload = json.loads("{" + capsys.readouterr().out.split("\n{", 1)[1])
        assert set(payload["estimands"]) == {
            f"{psi}:{scheme}" for psi in (1, 2, 3) for scheme in ("ipw", "ow")
        }
        assert payload["failed_replicates"] == {
            f"{psi}/{cens}": 0 for cens in (0.25, 0.5) for psi in (1, 2, 3)
        }


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy more than doubled the
    # import time of every CLI process
    src = str(Path(wcox.__file__).resolve().parent.parent)
    probe = (
        "import sys, wcox, wcox.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_sources_import_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "wcox"}
    foreign = []
    for path in sorted(Path(wcox.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one within wcox
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert foreign == []


class TestEstimandCommand:
    def test_plumbing_and_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(wcox.cli, "true_estimand", _fake_estimand)
        out_csv = tmp_path / "estimand.csv"
        code = main(
            ["estimand", "--setting", "multi3", "--scheme", "ow",
             "--psi", "2.0", "--out-csv", str(out_csv)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimand"]["scheme"] == "ow"
        assert payload["estimand"]["psi"] == 2.0
        assert len(payload["estimand"]["tau_star"]) == 2
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "setting,scheme,psi,component,tau_star,m,seed,t0"
        assert len(lines) == 3

    def test_m_floor_is_enforced(self, capsys):
        code = main(
            ["estimand", "--setting", "multi3", "--scheme", "ipw",
             "--psi", "1.0", "--M", "1000"]
        )
        assert code == 2
        assert "at least 1e6" in capsys.readouterr().err

    def test_non_finite_psi_exits_two(self, capsys):
        code = main(["estimand", "--setting", "multi3", "--scheme", "ow", "--psi", "nan"])
        assert code == 2
        assert "psi must be positive and finite" in capsys.readouterr().err

    def test_att_scheme_needs_index(self, capsys):
        code = main(
            ["estimand", "--setting", "multi3", "--scheme", "att:first",
             "--psi", "1.0"]
        )
        assert code == 2
        assert "group index" in capsys.readouterr().err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("wcox ")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_duration_goes_to_stderr(self, four_unit_csv, capsys):
        main(
            ["fit", four_unit_csv, "--time", "t", "--event", "d",
             "--treatment", "z", "--weight-scheme", "unit",
             "--variance", "none"]
        )
        err = capsys.readouterr().err
        assert "finished in" in err
