"""Command line interface.

Subcommands: fit, km, balance, simulate, estimand.  Every command prints
a run manifest (command, resolved configuration, SHA-256 digests of the
input files, seed, package version) so outputs are reproducible; given
identical inputs, flags, and seeds the outputs are byte-identical.
Wall-clock duration, and the reasons why `fit` dropped bootstrap
replicates and `simulate` study replicates, go to stderr only, keeping
the output streams deterministic.

Exit codes: 0 success, 2 validation or input error, 3 solver
nonconvergence or separation, 4 simulation study abort.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import itertools
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
from .simulation import (
    _DESIGNS,
    ScenarioConfig,
    run_study,
    true_estimand,
)
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


# data rows per block of the reader: bounds the rows held as strings
_BLOCK_ROWS = 1 << 12


def _block_values(block, k, kind):
    """Column k of a block of rows: a float64 array, or for `kind` str the
    cells.  Raises IndexError or ValueError when a row is too short, a
    cell is empty or a float cell does not parse."""
    cells = [row[k] for row in block]
    if kind is str:
        if "" in cells:
            raise ValueError("empty cell")
        return cells
    # numpy converts each str cell as Python's float() does (`1_0`,
    # ` 1.5 `, `inf`), the rule of the rescan below
    return np.array(cells, dtype=np.float64)


def _rescan(block, k, kind, col, path, first_row):
    """Column k of a block whose conversion failed, converted cell by
    cell: the ValidationError of its first bad row (an empty value before
    an unparseable one), or the values when no cell is bad."""
    values = []
    for offset, row in enumerate(block):
        raw = row[k] if k < len(row) else None
        if raw is None or raw == "":
            return ValidationError(
                f"{path}: row {first_row + offset}: empty value in {col!r}"
            )
        try:
            values.append(kind(raw))
        except ValueError:
            return ValidationError(
                f"{path}: row {first_row + offset}: cannot parse {col!r} value {raw!r}"
            )
    return values if kind is str else np.array(values, dtype=np.float64)


def _read_columns(path: str, wanted):
    """Header and parsed columns of a CSV file, read once by one
    `csv.reader` in blocks of `_BLOCK_ROWS` data rows.

    `wanted` holds (column, kind) pairs, kind float or str.  As with
    `csv.DictReader`, blank lines are skipped and not counted as rows, a
    short row has no value in its missing columns, and of two columns
    with one name the last is read.  Returns (names, columns): columns
    maps each wanted pair whose column is in the header to a
    float64 array or list of cells, or to the ValidationError of its
    first bad row.  Errors of the file itself (unreadable, not UTF-8, no
    header, no rows) are raised once the whole file has been read, in
    that order.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            names = next(reader, None)
            index = {name: k for k, name in enumerate(names or ())}
            parts = {key: [] for key in wanted if key[0] in index}
            rows = 0
            while raw := list(itertools.islice(reader, _BLOCK_ROWS)):
                block = [row for row in raw if row]
                for key, found in parts.items():
                    if isinstance(found, ValidationError):
                        continue
                    col, kind = key
                    try:
                        values = _block_values(block, index[col], kind)
                    except (IndexError, ValueError):
                        values = _rescan(block, index[col], kind, col, path, rows + 1)
                    if isinstance(values, ValidationError):
                        parts[key] = values
                    else:
                        found.append(values)
                rows += len(block)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not valid UTF-8: {exc}") from None
    if not names:
        raise ValidationError(f"{path}: header row required")
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    columns = {}
    for key, found in parts.items():
        if isinstance(found, ValidationError):
            columns[key] = found
        elif key[1] is str:
            columns[key] = list(itertools.chain.from_iterable(found))
        else:
            columns[key] = np.concatenate(found)
        # drop the column's blocks once joined: one column at a time is
        # held twice
        parts[key] = None
    return names, columns


def _column(names, columns, col, path, kind=float):
    if col not in names:
        raise ValidationError(f"{path}: column {col!r} not found (header: {names})")
    found = columns[col, kind]
    if isinstance(found, ValidationError):
        raise found
    return found


def _load_cohort(args) -> tuple[Cohort, list[str]]:
    cov_names = [c.strip() for c in args.covariates.split(",") if c.strip()]
    floats = (args.time, args.event, *cov_names, args.z1, args.z2)
    wanted = [(c, float) for c in floats if c]
    if args.treatment:
        wanted.append((args.treatment, str))
    names, columns = _read_columns(args.data, wanted)
    t = _column(names, columns, args.time, args.data)
    d = _column(names, columns, args.event, args.data)
    covs = None
    if cov_names:
        covs = np.column_stack(
            [_column(names, columns, c, args.data) for c in cov_names]
        )
    if args.treatment and (args.z1 or args.z2):
        raise ValidationError("give either --treatment or --z1/--z2, not both")
    if args.treatment:
        z = _column(names, columns, args.treatment, args.data, str)
        try:
            # integer-looking labels keep their numeric identity (a dense
            # 0..J column then maps to itself instead of first appearance)
            z = [int(v) for v in z]
        except ValueError:
            pass
        return validate_cohort(t, d, z, covs, reference=args.reference), cov_names
    if not (args.z1 and args.z2):
        raise ValidationError("either --treatment or both --z1 and --z2 are required")
    z1 = _column(names, columns, args.z1, args.data)
    z2 = _column(names, columns, args.z2, args.data)
    for name, z in ((args.z1, z1), (args.z2, z2)):
        if not np.isin(z, (0.0, 1.0)).all():
            raise ValidationError(f"{args.data}: column {name!r} must be 0/1")
    labels4 = encode_factorial(z1.astype(np.int64), z2.astype(np.int64))
    missing = sorted(set(range(4)) - set(np.unique(labels4).tolist()))
    if missing:
        cells = [factorial_treatment_labels()[k] for k in missing]
        raise ValidationError(f"{args.data}: factorial cell(s) {cells} absent")
    base = validate_cohort(t, d, labels4, covs)
    cohort = dataclasses.replace(base, treatment_labels=factorial_treatment_labels())
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
    # the call gets the only reference to the loaded cohort, so a trim
    # frees it and its propensity fit before the Cox and variance stages
    held = [cohort]
    del cohort
    bundle = fit_weighted_mhr(
        held.pop(),
        scheme,
        att_target=att_target,
        variance=variance,
        n_boot=200 if n_boot is None else n_boot,
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
            f"{float(row['smd_unweighted'])!r},{float(row['smd_weighted'])!r}"
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
    # the intercepts and tau* depend on psi but not on the censoring level:
    # a later cell of the same psi gets the first one's estimands, whose OW
    # entry carries the intercepts
    for psi, cens in cells:
        known = next((r.estimands for r in reports if r.config.psi == psi), None)
        report = run_study(dataclasses.replace(base, psi=psi, censoring=cens), known)
        reports.append(report)
        sys.stdout.write(report.format_table())
        for reason, count in report.failure_reasons.items():
            print(
                f"wcox: cell {psi:g}/{cens:g}: {count} of {report.config.replicates} "
                f"replicates failed with {reason}",
                file=sys.stderr,
            )
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
