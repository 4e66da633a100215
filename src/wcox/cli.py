"""Command line interface.

Subcommands: fit, km, balance, simulate, estimand.  Every command prints
a run manifest (command, resolved configuration, SHA-256 digests of the
input files, seed, package version) so outputs are reproducible; given
identical inputs, flags, and seeds the outputs are byte-identical.
Wall-clock duration, and the reasons why `fit` dropped bootstrap
replicates, go to stderr only, keeping the output streams deterministic.

Exit codes: 0 success, 2 validation or input error, 3 solver
nonconvergence or separation, 4 simulation study abort.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .data_model import (
    Cohort,
    ConvergenceError,
    StudyError,
    ValidationError,
    encode_factorial,
    factorial_treatment_labels,
    validate_cohort,
)
from .marginal_cox import confidence_intervals, fit_weighted_mhr
from .propensity import _weigh, balance_table, parse_scheme, propensity_histogram
from .simulation import _DESIGNS, ScenarioConfig, run_study, true_estimand
from .weighted_km import export_km_csv, export_km_svg, km_curves

__all__ = ["main"]


def _fnum(x):
    """JSON-safe number: plain float, or None for missing/NaN."""
    if x is None:
        return None
    x = float(x)
    return None if math.isnan(x) else x


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args, inputs) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command") or key.startswith("_"):
            continue
        config[key] = value
    return {
        "command": args.command,
        "version": __version__,
        "config": config,
        "inputs": {path: _sha256(path) for path in inputs},
        "seed": getattr(args, "seed", None),
    }


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


# ---------------------------------------------------------------- input


def _add_cohort_flags(sub):
    sub.add_argument("data", help="input CSV file (comma separated, header row, UTF-8)")
    sub.add_argument("--time", required=True, help="column with follow-up times")
    sub.add_argument("--event", required=True, help="column with 0/1 event indicators")
    sub.add_argument("--treatment", help="column with treatment labels")
    sub.add_argument("--z1", help="column with the first binary factor (factorial)")
    sub.add_argument("--z2", help="column with the second binary factor (factorial)")
    sub.add_argument(
        "--covariates",
        default="",
        help="comma-separated covariate column names",
    )
    sub.add_argument("--reference", help="treatment label to use as reference group")


def _read_rows(path: str):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            names = reader.fieldnames
            rows = list(reader)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not valid UTF-8: {exc}") from None
    if not names:
        raise ValidationError(f"{path}: header row required")
    return names, rows


def _column(rows, names, col, path, kind=str):
    if col not in names:
        raise ValidationError(f"{path}: column {col!r} not found (header: {names})")
    out = []
    for k, row in enumerate(rows):
        raw = row[col]
        if raw is None or raw == "":
            raise ValidationError(f"{path}: row {k + 1}: empty value in {col!r}")
        if kind is str:
            out.append(raw)
            continue
        try:
            out.append(kind(raw))
        except ValueError:
            raise ValidationError(
                f"{path}: row {k + 1}: cannot parse {col!r} value {raw!r}"
            ) from None
    return out


def _load_cohort(args) -> tuple[Cohort, list[str]]:
    names, rows = _read_rows(args.data)
    if not rows:
        raise ValidationError(f"{args.data}: no data rows")
    t = _column(rows, names, args.time, args.data, float)
    d = _column(rows, names, args.event, args.data, float)
    cov_names = [c.strip() for c in args.covariates.split(",") if c.strip()]
    covs = None
    if cov_names:
        covs = np.column_stack(
            [_column(rows, names, c, args.data, float) for c in cov_names]
        )
    if args.treatment and (args.z1 or args.z2):
        raise ValidationError("give either --treatment or --z1/--z2, not both")
    if args.treatment:
        z = _column(rows, names, args.treatment, args.data, str)
        try:
            # integer-looking labels keep their numeric identity (a dense
            # 0..J column then maps to itself instead of first appearance)
            z = [int(v) for v in z]
        except ValueError:
            pass
        return validate_cohort(t, d, z, covs, reference=args.reference), cov_names
    if not (args.z1 and args.z2):
        raise ValidationError("either --treatment or both --z1 and --z2 are required")
    z1 = np.asarray(_column(rows, names, args.z1, args.data, float))
    z2 = np.asarray(_column(rows, names, args.z2, args.data, float))
    for name, z in ((args.z1, z1), (args.z2, z2)):
        if not np.isin(z, (0.0, 1.0)).all():
            raise ValidationError(f"{args.data}: column {name!r} must be 0/1")
    labels4 = encode_factorial(z1.astype(np.int64), z2.astype(np.int64))
    missing = sorted(set(range(4)) - set(np.unique(labels4).tolist()))
    if missing:
        cells = [factorial_treatment_labels()[k] for k in missing]
        raise ValidationError(f"{args.data}: factorial cell(s) {cells} absent")
    base = validate_cohort(t, d, labels4, covs)
    cohort = Cohort(
        time=base.time,
        event=base.event,
        treatment=base.treatment,
        covariates=base.covariates,
        treatment_labels=factorial_treatment_labels(),
    )
    return cohort, cov_names


def _resolve_scheme(args, cohort: Cohort):
    scheme, att_label = parse_scheme(args.weight_scheme)
    att_target = None
    if scheme == "att":
        try:
            att_target = cohort.treatment_labels.index(att_label)
        except ValueError:
            raise ValidationError(
                f"att target {att_label!r} is not a treatment label "
                f"{list(cohort.treatment_labels)}"
            ) from None
    return scheme, att_target


def _parse_variance(text: str):
    head, _, tail = text.strip().partition(":")
    head = head.lower()
    if head == "robust" and not tail:
        return "robust", None
    if head == "none" and not tail:
        return "none", None
    if head == "bootstrap":
        try:
            b = int(tail)
        except ValueError:
            raise ValidationError(
                "bootstrap variance needs a replicate count, e.g. bootstrap:200"
            ) from None
        return "bootstrap", b
    raise ValidationError(
        f"unknown variance {text!r}; expected robust, bootstrap:<B>, or none"
    )


def _write_text(path, content: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


# ------------------------------------------------------------- commands


def _cmd_fit(args) -> int:
    cohort, _ = _load_cohort(args)
    scheme, att_target = _resolve_scheme(args, cohort)
    variance, n_boot = _parse_variance(args.variance)
    if variance == "bootstrap" and args.seed is None:
        raise ValidationError("--seed is required with bootstrap variance")
    if not (0.0 < args.level < 1.0):
        raise ValidationError("confidence level must lie in (0, 1)")
    bundle = fit_weighted_mhr(
        cohort,
        scheme,
        att_target=att_target,
        variance=variance,
        n_boot=n_boot if n_boot else 200,
        seed=args.seed,
        trim_threshold=args.trim,
        refit_trim=not args.no_trim_refit,
    )
    est = bundle.estimate
    limits = (
        np.full((len(est.tau), 3), np.nan)
        if est.cov_tau is None
        else confidence_intervals(est, args.level)
    )
    rows = []
    for k in range(len(est.tau)):
        rows.append(
            {
                "group": est.treatment_labels[k + 1],
                "vs": est.treatment_labels[0],
                "tau": _fnum(est.tau[k]),
                "hr": _fnum(est.hr[k]),
                "se": _fnum(est.se[k]),
                "ci_low": _fnum(limits[k, 1]),
                "ci_high": _fnum(limits[k, 2]),
            }
        )
    out = {
        "manifest": _manifest(args, [args.data]),
        "n": est.n,
        "n_events": est.n_events,
        "groups": list(est.treatment_labels),
        "scheme": args.weight_scheme,
        "variance_method": est.variance_method,
        "ci_level": args.level,
        "estimates": rows,
        "cov_tau": None
        if est.cov_tau is None
        else [[_fnum(v) for v in row] for row in est.cov_tau],
        "loglik": _fnum(est.loglik),
        "iterations": est.iterations,
        "score_norm": _fnum(est.score_norm),
        "propensity": None
        if bundle.psfit is None
        else {
            "iterations": bundle.psfit.iterations,
            "loglik": _fnum(bundle.psfit.loglik),
            "ridged": bundle.psfit.ridged,
        },
        "trim": None
        if bundle.trim_result is None
        else {
            "threshold": bundle.trim_result.threshold,
            "n_removed": int(bundle.trim_result.removed.size),
            "removed_by_group": bundle.trim_result.removed_by_group.tolist(),
            "n_after": est.n,
            "refitted": bundle.trim_result.refitted,
        },
        "bootstrap": None
        if bundle.bootstrap is None
        else {
            "replicates": bundle.bootstrap.n_requested,
            "dropped": bundle.bootstrap.n_dropped,
        },
    }
    text = _json_dump(out)
    print(text)
    if args.out_json:
        _write_text(args.out_json, text + "\n")
    boot = bundle.bootstrap
    if boot is not None and boot.n_dropped:
        reasons = ", ".join(f"{k} {v}" for k, v in boot.drop_reasons.items())
        print(
            f"wcox: bootstrap dropped {boot.n_dropped} of {boot.n_requested} "
            f"replicates ({reasons})",
            file=sys.stderr,
        )
    return 0


def _cmd_km(args) -> int:
    cohort, _ = _load_cohort(args)
    scheme, att_target = _resolve_scheme(args, cohort)
    fitted, _, weights, _ = _weigh(
        cohort, scheme, att_target, args.trim, not args.no_trim_refit
    )
    curves = km_curves(fitted, weights)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            export_km_csv(curves, fh)
    else:
        export_km_csv(curves, sys.stdout)
    if args.out_svg:
        with open(args.out_svg, "w", encoding="utf-8") as fh:
            export_km_svg(curves, fh, cumulative=args.cumulative)
    print(_json_dump({"manifest": _manifest(args, [args.data])}))
    return 0


def _cmd_balance(args) -> int:
    cohort, cov_names = _load_cohort(args)
    if cohort.n_covariates == 0:
        raise ValidationError("balance diagnostics need --covariates")
    scheme, att_target = _resolve_scheme(args, cohort)
    fitted, psfit, weights, _ = _weigh(
        cohort, scheme, att_target, args.trim, not args.no_trim_refit
    )
    if args.out_histogram and psfit is None:
        raise ValidationError("propensity histogram needs a fitted model")
    report = balance_table(fitted, weights, cov_names or None)
    lines = ["covariate,group_a,group_b,smd_unweighted,smd_weighted"]
    for row in report.to_rows():
        lines.append(
            f"{row['covariate']},{row['group_a']},{row['group_b']},"
            f"{_csv_num(row['smd_unweighted'])},{_csv_num(row['smd_weighted'])}"
        )
    content = "\n".join(lines) + "\n"
    if args.out_csv:
        _write_text(args.out_csv, content)
    else:
        sys.stdout.write(content)
    if args.out_histogram:
        counts, edges = propensity_histogram(psfit, fitted.treatment)
        hl = ["component,group,bin_low,bin_high,count"]
        g = counts.shape[0]
        for comp in range(g):
            for grp in range(g):
                for b in range(counts.shape[2]):
                    hl.append(
                        f"{fitted.treatment_labels[comp]},"
                        f"{fitted.treatment_labels[grp]},"
                        f"{float(edges[b])!r},{float(edges[b + 1])!r},"
                        f"{counts[comp, grp, b]}"
                    )
        _write_text(args.out_histogram, "\n".join(hl) + "\n")
    print(
        _json_dump(
            {
                "manifest": _manifest(args, [args.data]),
                "max_abs_smd_weighted": _fnum(report.max_abs_weighted()),
            }
        )
    )
    return 0


def _csv_num(v) -> str:
    v = float(v)
    return "nan" if math.isnan(v) else repr(v)


def _read_scenario_file(path: str) -> dict:
    """Flat key=value scenario file; blank lines and # comments ignored."""
    mapping = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(
                        f"{path}: line {ln}: expected key = value, got {raw!r}"
                    )
                key, _, value = line.partition("=")
                mapping[key.strip()] = value.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    return mapping


def _scenario_from_args(args) -> ScenarioConfig:
    mapping = _read_scenario_file(args.config) if args.config else {}
    overrides = {
        "setting": args.setting,
        "psi": args.psi,
        "n": args.n,
        "censoring": args.censoring,
        "replicates": args.replicates,
        "bootstrap_b": args.bootstrap_B,
        "seed": args.seed,
        "estimand_m": args.estimand_M,
    }
    for key, value in overrides.items():
        if value is not None:
            mapping[key] = value
    return ScenarioConfig.from_mapping(mapping)


def _estimand_payload(res) -> dict:
    return {
        "setting": res.setting,
        "scheme": res.scheme,
        "psi": res.psi,
        "tau_star": [_fnum(v) for v in res.tau_star],
        "m": res.m,
        "seed": list(res.seed) if isinstance(res.seed, tuple) else res.seed,
        "t0": _fnum(res.t0),
        "source": "monte-carlo stacked potential times",
    }


def _cmd_simulate(args) -> int:
    base = _scenario_from_args(args)
    if args.full_grid:
        print(
            "wcox: running the full psi x censoring grid; this can take hours",
            file=sys.stderr,
        )
        cells = [
            (psi, cens)
            for cens in (0.25, 0.5)
            for psi in (1.0, 2.0, 3.0)
        ]
    else:
        cells = [(base.psi, base.censoring)]
    reports = []
    for psi, cens in cells:
        report = run_study(dataclasses.replace(base, psi=psi, censoring=cens))
        reports.append(report)
        sys.stdout.write(report.format_table())
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            for k, report in enumerate(reports):
                buf = io.StringIO()
                report.to_csv(buf)
                lines = buf.getvalue().splitlines()
                if k == 0:
                    fh.write(lines[0] + "\n")
                for line in lines[1:]:
                    fh.write(line + "\n")
    payload = {
        "manifest": _manifest(args, [args.config] if args.config else []),
        "estimands": {
            f"{rep.config.psi:g}:{scheme}": _estimand_payload(rep.estimands[scheme])
            for rep in reports
            for scheme in ("ipw", "ow")
        },
        "failed_replicates": {
            f"{rep.config.psi:g}/{rep.config.censoring:g}": rep.n_failed
            for rep in reports
        },
    }
    print(_json_dump(payload))
    return 0


def _cmd_estimand(args) -> int:
    scheme, att_label = parse_scheme(args.scheme)
    att_target = None
    if scheme == "att":
        try:
            att_target = int(att_label)
        except ValueError:
            raise ValidationError(
                "att estimand target must be a group index, e.g. att:1"
            ) from None
    res = true_estimand(
        args.setting,
        scheme,
        args.psi,
        args.M,
        seed=args.seed,
        att_target=att_target,
    )
    payload = {
        "manifest": _manifest(args, []),
        "estimand": _estimand_payload(res),
    }
    print(_json_dump(payload))
    if args.out_csv:
        lines = ["setting,scheme,psi,component,tau_star,m,seed,t0"]
        for k, v in enumerate(res.tau_star):
            lines.append(
                f"{res.setting},{res.scheme},{float(res.psi)!r},tau_{k + 1},"
                f"{float(v)!r},{res.m},{res.seed},{float(res.t0)!r}"
            )
        _write_text(args.out_csv, "\n".join(lines) + "\n")
    return 0


# --------------------------------------------------------------- parser


def _add_weighting_flags(sub):
    sub.add_argument(
        "--weight-scheme",
        default="ipw",
        help="ipw (default), ow, unit, or att:<label>",
    )
    sub.add_argument(
        "--trim",
        type=float,
        help="remove units with min_j e_ij below this threshold",
    )
    sub.add_argument(
        "--no-trim-refit",
        action="store_true",
        help="keep the original propensity fit after trimming",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcox",
        description=(
            "Propensity-score weighted marginal Cox models for multiple "
            "and factorial treatments"
        ),
    )
    parser.add_argument("--version", action="version", version=f"wcox {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="weighted marginal hazard ratios")
    _add_cohort_flags(fit)
    _add_weighting_flags(fit)
    fit.add_argument(
        "--variance",
        default="robust",
        help="robust (default), bootstrap:<B>, or none",
    )
    fit.add_argument("--seed", type=int, help="seed (required for bootstrap)")
    fit.add_argument("--level", type=float, default=0.95, help="CI level")
    fit.add_argument("--out-json", help="also write the JSON result here")
    fit.set_defaults(func=_cmd_fit)

    km = subs.add_parser("km", help="weighted Kaplan-Meier curves")
    _add_cohort_flags(km)
    _add_weighting_flags(km)
    km.add_argument("--out-csv", help="write curve points here (default stdout)")
    km.add_argument("--out-svg", help="also render an SVG plot")
    km.add_argument(
        "--cumulative", action="store_true", help="plot 1 - S instead of S"
    )
    km.set_defaults(func=_cmd_km)

    bal = subs.add_parser("balance", help="covariate balance diagnostics")
    _add_cohort_flags(bal)
    _add_weighting_flags(bal)
    bal.add_argument("--out-csv", help="write the SMD table here (default stdout)")
    bal.add_argument(
        "--out-histogram", help="write binned propensity counts (CSV) here"
    )
    bal.set_defaults(func=_cmd_balance)

    sim = subs.add_parser("simulate", help="run a simulation study cell")
    sim.add_argument("--config", help="flat key=value scenario file")
    sim.add_argument("--setting", choices=tuple(_DESIGNS))
    sim.add_argument("--psi", type=float)
    sim.add_argument("--n", type=int)
    sim.add_argument("--censoring", type=float)
    sim.add_argument("--replicates", type=int)
    sim.add_argument("--bootstrap-B", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--estimand-M", type=int)
    sim.add_argument("--out-csv", help="write the study report CSV here")
    sim.add_argument(
        "--full-grid",
        action="store_true",
        help="run the full psi x censoring grid (slow)",
    )
    sim.set_defaults(func=_cmd_simulate)

    est = subs.add_parser("estimand", help="large-sample weighted estimand")
    est.add_argument("--setting", required=True, choices=tuple(_DESIGNS))
    est.add_argument("--scheme", required=True, help="ipw, ow, or att:<index>")
    est.add_argument("--psi", type=float, required=True)
    est.add_argument("--M", type=int, default=2_000_000)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--out-csv", help="write the estimand CSV here")
    est.set_defaults(func=_cmd_estimand)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except ValidationError as exc:
        print(f"wcox: error: {exc}", file=sys.stderr)
        code = 2
    except ConvergenceError as exc:
        print(f"wcox: error: {exc}", file=sys.stderr)
        code = 3
    except StudyError as exc:
        print(f"wcox: error: {exc}", file=sys.stderr)
        code = 4 if args.command == "simulate" else 3
    finally:
        print(
            f"wcox: {args.command} finished in {time.monotonic() - start:.3f}s",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
