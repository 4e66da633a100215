"""Command-line interface: loading, commands, exit codes, output formats."""

import csv
import io
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import wcox.cli
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
        code = main(
            ["fit", str(path), "--time", "t", "--event", "d", "--treatment", "z"]
        )
        assert code == 2
        assert "row 2" in capsys.readouterr().err

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

    def test_study_abort_exits_four(self, capsys, monkeypatch):
        monkeypatch.setattr(wcox.simulation, "true_estimand", _fake_estimand)
        code = main(
            ["simulate", "--setting", "multi3", "--n", "12",
             "--replicates", "3", "--bootstrap-B", "8", "--seed", "2"]
        )
        assert code == 4
        assert "study aborted" in capsys.readouterr().err


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
