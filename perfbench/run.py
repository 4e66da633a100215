"""Benchmark of wcox: two workloads, end-to-end metrics and a layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cohort-cli --seed 1 --seconds 15 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

  cohort-cli      `wcox fit --weight-scheme ow --variance robust`, `wcox km`
                  and `wcox balance --out-histogram`, each a fresh process,
                  on one 1e5-row factorial CSV written by this file's own
                  numpy code
  study-boot      one `run_study` call (factorial, psi=2, n=1000,
                  16 replicates, B=100) in its own process; see study_call.py

The load is a closed loop with one client: an operation starts only after
the previous one has returned, and one workload runs at a time.  The only
concurrency is the process pool of `run_study`, whose size WCOX_THREADS
sets to the number of cores this process may run on.

A run repeats the workload's operation until `--seconds` have passed and
at least three times (once in a traced run).  It sets up before every
operation and once after the last, and reports the median as `setup_s`:
cohort-cli writes its CSV and imports `wcox.cli` in a fresh interpreter;
study-boot imports `wcox.simulation` in a fresh interpreter, as its study
process does before it calls `run_study`.
It checks the outputs: every operation exits 0, repeated operations print
the same bytes, the results are finite, OW balances the covariates, and
for the default seed the results match the golden values in golden.json.
With `--trace 1` it also runs the operation twice in this process (study-boot
with one worker): once untraced, as the reference for the tracer's
overhead, then with every public wcox function wrapped by tracer.Tracer.
It reports the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when a check fails and
2 when the checkout holds no wcox sources.  A full record of the run (the
machine, every operation, every check, the trace with its spans and the
drop and failure reasons) is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
# operations per untraced run: single wall times on a shared host vary by
# 10-20% from call to call, so a run reports the median of at least three
MIN_OPS = 3
PROCESS_TIMEOUT_S = 150.0
COHORT_ROWS = 100_000

# functions whose total, self time and call count the traced run reports
TRACED_FUNCTIONS = (
    "cli.main",
    "data_model.validate_cohort",
    "propensity.fit_multinomial_logit",
    "propensity.multinomial_probs",
    "propensity.multinomial_information",
    "propensity.compute_weights",
    "propensity.balance_table",
    "propensity.propensity_histogram",
    "marginal_cox.fit_weighted_mhr",
    "marginal_cox.fit_mhr",
    "marginal_cox.evaluate_score",
    "marginal_cox.stacked_pieces",
    "marginal_cox.sandwich_covariance",
    "marginal_cox.bootstrap_covariance",
    "engine.fit_cox",
    "simulation.run_study",
    "simulation.make_replicate",
    "simulation.calibrate_intercepts",
    "simulation.calibrate_censoring",
    "simulation.true_propensities",
    "simulation.gen_covariates",
    "simulation.gen_outcomes",
    "weighted_km.km_curves",
    "weighted_km.weighted_km",
    "weighted_km.export_km_csv",
)

# the siblings below; Python leaves the script's directory off sys.path
# when PYTHONSAFEPATH is set
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
import study_call  # noqa: E402
from tracer import Tracer  # noqa: E402


def median(values):
    return float(statistics.median(values)) if values else 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------- inputs


def write_cohort_csv(path: Path, n: int, seed: int) -> None:
    """Factorial cohort: 6 covariates, cells from (z1, z2), ~25% censored.

    Covariates are three equicorrelated normals and three centred
    Bernoulli(0.5) draws; cells follow a confounded multinomial logit;
    times are Weibull proportional hazards and censoring is exponential.
    """
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(np.full((3, 3), 0.5) + 0.5 * np.eye(3))
    x = np.hstack(
        [rng.standard_normal((n, 3)) @ chol.T, rng.integers(0, 2, (n, 3)) - 0.5]
    )
    b = np.array([0.6, -0.4, 0.3, 0.2, -0.1, 0.15])
    c = np.array([0.4, 0.2, -0.3, 0.1, 0.1, -0.2])
    ub, uc = x @ (b / np.linalg.norm(b)), x @ (c / np.linalg.norm(c))
    logits = np.column_stack([np.zeros(n), ub, -ub, uc])
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    cell = (rng.random(n)[:, None] > probs.cumsum(axis=1)).sum(axis=1)
    lp = x @ np.array([1.2, -0.9, 0.8, 0.6, -0.3, 0.4])
    lp += np.array([0.0, 0.35, -0.2, 0.15])[cell]
    t = (-np.log(rng.random(n)) / np.exp(lp)) ** (1.0 / 1.2)
    c_time = rng.exponential(1.0, n) / 0.26
    data = np.column_stack([np.minimum(t, c_time), t <= c_time, cell // 2, cell % 2, x])
    np.savetxt(
        path,
        data,
        fmt=["%.6f", "%d", "%d", "%d"] + ["%.6f"] * 6,
        delimiter=",",
        header="time,event,z1,z2,x1,x2,x3,x4,x5,x6",
        comments="",
    )


# -------------------------------------------------------------- processes


@dataclass
class Proc:
    code: int
    wall: float
    maxrss_kb: int
    stdout: bytes
    stderr: str


def kill_group(pid: int) -> None:
    """SIGKILL the process group that `pid` leads, if it is still there."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


class Run:
    """State of one benchmark run: its work directory and child settings."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.workers = len(os.sched_getaffinity(0))
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["WCOX_THREADS"] = str(self.workers)
        return env

    def process(self, argv, *, tag="proc") -> Proc:
        """Run argv to completion; wall time and peak RSS from wait4."""
        out_path, err_path = self.dir / f"{tag}.out", self.dir / f"{tag}.err"
        env = self.env()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(PROCESS_TIMEOUT_S, kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill_group(proc.pid)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            code=proc.returncode,
            wall=wall,
            maxrss_kb=usage.ru_maxrss,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


@dataclass
class Op:
    """One operation of a workload, untraced or traced."""

    wall: float = 0.0
    peak_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    parts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    reasons: dict = field(default_factory=dict)


def add_cli_process(op: Op, name: str, proc: Proc) -> None:
    op.wall += proc.wall
    op.peak_rss_kb = max(op.peak_rss_kb, proc.maxrss_kb)
    op.attempted += 1
    op.parts[f"cli.{name}.wall_s"] = proc.wall
    op.outputs[name] = proc.stdout
    if proc.code != 0:
        op.failed += 1
        op.errors.append(f"{name} exited {proc.code}: {proc.stderr.strip()[-500:]}")


def in_process_cli(op: Op, name: str, argv) -> None:
    """Call wcox.cli.main(argv) here, capturing what it prints."""
    import wcox.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wcox.cli.main(argv)
    op.wall += time.perf_counter() - start
    op.attempted += 1
    op.outputs[name] = out.getvalue().encode("utf-8")
    if code != 0:
        op.failed += 1
        op.errors.append(f"{name} returned {code}: {err.getvalue().strip()[-500:]}")


def close(a, b, abs_tol, rel_tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= abs_tol + rel_tol * abs(b)


def finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def as_number(text: str):
    v = float(text)
    return None if math.isnan(v) else v


# -------------------------------------------------------------- workloads


class CohortCli:
    name = "cohort-cli"
    COMMANDS = ("fit", "km", "balance")

    def __init__(self, run: Run):
        self.run = run
        self.csv = run.dir / "cohort.csv"
        self.hist = run.dir / "histogram.csv"

    def setup(self) -> dict:
        write_cohort_csv(self.csv, COHORT_ROWS, self.run.seed)
        return {"cli.import_s": probe_import(self.run, "wcox.cli")}

    def argv(self, command):
        flags = [
            str(self.csv), "--time", "time", "--event", "event", "--z1", "z1",
            "--z2", "z2", "--covariates", "x1,x2,x3,x4,x5,x6",
            "--weight-scheme", "ow",
        ]
        extra = {
            "fit": ["--variance", "robust"],
            "km": [],
            "balance": ["--out-histogram", str(self.hist)],
        }[command]
        return [command] + flags + extra

    def op(self) -> Op:
        op = Op()
        for command in self.COMMANDS:
            proc = self.run.process(
                [sys.executable, "-m", "wcox.cli"] + self.argv(command), tag=command
            )
            add_cli_process(op, command, proc)
        op.outputs["histogram"] = self.hist.read_bytes() if self.hist.exists() else b""
        return op

    def in_process_op(self) -> Op:
        op = Op()
        for command in self.COMMANDS:
            in_process_cli(op, command, self.argv(command))
        op.outputs["histogram"] = self.hist.read_bytes() if self.hist.exists() else b""
        return op

    @staticmethod
    def _parse(outputs):
        """fit JSON, KM rows, balance rows and histogram counts.

        Factorial labels such as "(0,1)" hold commas, so rows are split
        from the right.
        """

        def table(data: bytes, fields: int):
            text = data.decode().split("\n{", 1)[0].strip()
            return [line.rsplit(",", fields - 1) for line in text.splitlines()[1:]]

        fit = json.loads(outputs["fit"])
        km = table(outputs["km"], 6)
        balance = table(outputs["balance"], 3)
        hist = [int(row[-1]) for row in table(outputs["histogram"], 4)]
        return fit, km, balance, hist

    def values(self, outputs) -> dict:
        fit, km, balance, hist = self._parse(outputs)
        out = {
            "fit.n_events": (fit["n_events"], 0.0, 0.0),
            "fit.loglik": (fit["loglik"], 0.0, 1e-9),
            "km.rows": (len(km), 0.0, 0.0),
            "km.survival_sum": (sum(float(r[2]) for r in km), 0.0, 1e-9),
            "balance.max_smd_unweighted": (
                max(abs(float(r[1])) for r in balance), 0.0, 1e-9
            ),
            "balance.max_smd_weighted": (
                max(abs(float(r[2])) for r in balance), 0.0, 1e-9
            ),
            "balance.histogram_checksum": (
                sum((k + 1) * c for k, c in enumerate(hist)), 0.0, 0.0
            ),
        }
        for k, row in enumerate(fit["estimates"]):
            out[f"fit.tau_{k + 1}"] = (row["tau"], 1e-8, 0.0)
            out[f"fit.se_{k + 1}"] = (row["se"], 0.0, 1e-6)
        last = {}
        for row in km:
            last[row[0]] = float(row[2])
        for group, survival in sorted(last.items()):
            out[f"km.final_survival.{group}"] = (survival, 1e-9, 0.0)
        return out

    def invariants(self, outputs) -> list:
        fit, km, balance, _ = self._parse(outputs)
        rows = fit["estimates"]
        smd_raw = max(abs(float(r[1])) for r in balance)
        smd_ow = max(abs(float(r[2])) for r in balance)
        survival = [float(r[2]) for r in km]
        return [
            ("fit tau and se finite", finite([r["tau"] for r in rows] + [r["se"] for r in rows])),
            ("fit se positive", all(r["se"] > 0 for r in rows)),
            # a curve that ends in an event reaches 0 only up to rounding
            (
                "km survival within [0, 1] up to 1e-12",
                bool(survival) and all(-1e-12 <= s <= 1.0 + 1e-12 for s in survival),
            ),
            (
                f"OW max SMD {smd_ow:.3g} far below unweighted {smd_raw:.3g}",
                smd_raw > 0.05 and smd_ow <= 0.1 * smd_raw,
            ),
        ]


class StudyBoot:
    name = "study-boot"

    def __init__(self, run: Run):
        self.run = run
        self.csv = run.dir / "report.csv"

    def setup(self) -> dict:
        """A study process's set-up: a fresh interpreter imports wcox.simulation."""
        probe_import(self.run, "wcox.simulation")
        return {}

    def op(self) -> Op:
        proc = self.run.process(
            [sys.executable, str(HERE / "study_call.py"), "--seed", str(self.run.seed),
             "--out", str(self.csv)],
            tag="study",
        )
        op = Op(attempted=study_call.REPLICATES)
        if proc.code != 0:
            op.failed = study_call.REPLICATES
            op.wall = proc.wall
            op.errors.append(f"study exited {proc.code}: {proc.stderr.strip()[-500:]}")
            return op
        info = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        op.wall = info["study_s"]
        op.peak_rss_kb = max(proc.maxrss_kb, info["workers_maxrss_kb"])
        op.failed = info["n_failed"]
        op.outputs["report.csv"] = self.csv.read_bytes()
        op.parts["simulation.run_study.cpu_util"] = info["cpu_s"] / (
            info["study_s"] * self.run.workers
        )
        op.reasons = info["failure_reasons"]
        return op

    def in_process_op(self) -> Op:
        op = Op(attempted=study_call.REPLICATES)
        saved = os.environ.get("WCOX_THREADS")
        os.environ["WCOX_THREADS"] = "1"
        try:
            start = time.perf_counter()
            report = study_call.run(self.run.seed)
            op.wall = time.perf_counter() - start
        finally:
            if saved is None:
                del os.environ["WCOX_THREADS"]
            else:
                os.environ["WCOX_THREADS"] = saved
        op.failed = report.n_failed
        op.outputs["report.csv"] = study_call.report_csv(report).encode("utf-8")
        return op

    @staticmethod
    def _rows(outputs):
        """Report rows as dicts; the component label holds commas."""
        lines = outputs["report.csv"].decode().strip().splitlines()
        head = lines[0].split(",")
        rows = []
        for line in lines[1:]:
            *first, rest = line.split(",", 6)
            rows.append(dict(zip(head, first + rest.rsplit(",", 7))))
        return rows

    def values(self, outputs) -> dict:
        tolerances = {
            "target_tau": (0.0, 0.0),
            "rel_bias": (1e-8, 0.0),
            "coverage": (1e-12, 0.0),
            "se_robust_mean": (0.0, 1e-6),
            "se_bootstrap_mean": (0.0, 1e-6),
            "mc_sd": (0.0, 1e-7),
        }
        rows = self._rows(outputs)
        out = {"failed_replicates": (int(rows[0]["failed_replicates"]), 0.0, 0.0)}
        for row in rows:
            comp = row["component"].split()[0]
            for key, (abs_tol, rel_tol) in tolerances.items():
                out[f"{row['method']}.{comp}.{key}"] = (
                    as_number(row[key]), abs_tol, rel_tol
                )
        return out

    def invariants(self, outputs) -> list:
        rows = self._rows(outputs)
        weighted = [r for r in rows if r["method"] in ("ipw", "ow")]
        keys = ("target_tau", "rel_bias", "coverage", "se_robust_mean", "mc_sd")
        return [
            ("study has 4 methods x 3 components", len(rows) == 12),
            ("study values finite", finite([as_number(r[k]) for r in rows for k in keys])),
            (
                "bootstrap SE finite for ipw and ow",
                finite([as_number(r["se_bootstrap_mean"]) for r in weighted]),
            ),
            ("coverage within [0, 1]", all(0.0 <= float(r["coverage"]) <= 1.0 for r in rows)),
        ]


WORKLOADS = {w.name: w for w in (CohortCli, StudyBoot)}


# ------------------------------------------------------------------ setup


def probe_import(run: Run, module: str) -> float:
    """Import `module` in a fresh interpreter; returns the import time."""
    code = (
        f"import time; t = time.perf_counter(); import {module}; "
        f"print(time.perf_counter() - t); print({module}.__file__)"
    )
    proc = run.process([sys.executable, "-c", code], tag="import")
    # one value a line: the checkout's path may hold spaces
    lines = proc.stdout.decode().splitlines()
    if proc.code != 0 or len(lines) != 2 or not Path(lines[1]).is_relative_to(SRC):
        raise SystemExit(f"perfbench: cannot import {module} from {SRC}: {proc.stderr}")
    return float(lines[0])


def machine_record() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                check=True, text=True,
            ).stdout.strip()
    loadavg = None
    with contextlib.suppress(OSError):
        loadavg = list(os.getloadavg())
    return {
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "wcox_threads_set": len(os.sched_getaffinity(0)),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "git_sha": sha,
        "loadavg_at_start": loadavg,
    }


# ------------------------------------------------------------------ checks


def run_checks(workload, seed: int, ops) -> tuple[list, dict]:
    """(name, passed, detail) for every check, and the golden values."""
    checks = []
    for k, op in enumerate(ops):
        checks.append((f"op {k}: every operation succeeded", not op.errors, "; ".join(op.errors)))
    good = [op for op in ops if not op.errors]
    if not good:
        return checks, {}
    first = good[0].outputs
    for k, op in enumerate(good[1:], start=1):
        for key, data in first.items():
            checks.append((
                f"{key}: identical bytes in repetition {k}",
                op.outputs.get(key) == data,
                f"{sha256(data)} vs {sha256(op.outputs.get(key, b''))}",
            ))
    try:
        invariants, values = workload.invariants(first), workload.values(first)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        checks.append(("outputs parse", False, f"{type(exc).__name__}: {exc}"))
        return checks, {}
    for name, ok in invariants:
        checks.append((name, bool(ok), ""))
    if seed == DEFAULT_SEED:
        path = HERE / "golden.json"
        golden = json.loads(path.read_text()).get(workload.name) if path.exists() else None
        if golden is None:
            checks.append(("golden values recorded", False, "golden.json has no entry"))
        else:
            for name in sorted(set(golden) | set(values)):
                want = golden.get(name)
                got, abs_tol, rel_tol = values.get(name, (None, 0.0, 0.0))
                ok = name in golden and name in values and close(got, want, abs_tol, rel_tol)
                checks.append((f"golden {name}", ok, f"got {got!r}, want {want!r}"))
    return checks, {name: v[0] for name, v in values.items()}


# ----------------------------------------------------------------- metrics


def end_to_end(ops, setup_times) -> dict:
    return {
        "wall_s": median([op.wall for op in ops]),
        "peak_rss_mb": max(op.peak_rss_kb for op in ops) / 1024.0,
        "setup_s": median(setup_times),
    }


def per_layer(tracer: Tracer, untraced, reference: Op, traced: Op, setup_parts) -> dict:
    """Per-layer metrics from the trace, the timed operations and set-up.

    `reference` is the untraced in-process twin of the traced operation
    (for study-boot, the one-worker study call).
    """
    stats = tracer.function_stats()
    out = {}
    for name in TRACED_FUNCTIONS:
        s = stats.get(name, {})
        for key in ("total_s", "self_s", "calls"):
            out[f"{name}.{key}"] = s.get(key, 0)
    ps, cox, mhr = (stats.get(n, {}) for n in (
        "propensity.fit_multinomial_logit", "engine.fit_cox", "marginal_cox.fit_mhr"))
    boot = stats.get("marginal_cox.bootstrap_covariance", {})
    attempted, dropped = boot.get("n_requested", 0), boot.get("n_dropped", 0)
    out.update({
        "propensity.fit_multinomial_logit.iterations": ps.get("iterations", 0),
        "propensity.fit_multinomial_logit.ridged": ps.get("ridged", 0),
        "engine.fit_cox.iterations": cox.get("iterations", 0),
        "marginal_cox.fit_mhr.iterations": mhr.get("iterations", 0),
        "marginal_cox.bootstrap_covariance.attempted": attempted,
        "marginal_cox.bootstrap_covariance.dropped": dropped,
        "marginal_cox.bootstrap_covariance.kept_ratio":
            (attempted - dropped) / attempted if attempted else 0.0,
        "simulation.run_study.failed_replicates":
            stats.get("simulation.run_study", {}).get("n_failed", 0),
        "cli.import_s": median(setup_parts.get("cli.import_s", [])),
    })
    for part in ("cli.fit.wall_s", "cli.km.wall_s", "cli.balance.wall_s",
                 "simulation.run_study.cpu_util"):
        out[part] = median([op.parts[part] for op in untraced if part in op.parts])
    out["simulation.run_study.serial_s"] = (
        reference.wall if "simulation.run_study" in stats else 0.0
    )
    total = tracer.roots_total()
    # the share of the traced time that the reported functions' self times
    # explain; a public function that is wrapped but not reported lowers it
    selfs = sum(stats[name]["self_s"] for name in TRACED_FUNCTIONS if name in stats)
    done = list(untraced) + [reference, traced]
    attempted_ops = sum(op.attempted for op in done)
    failed_ops = sum(op.failed for op in done)
    out.update({
        "trace.total_s": total,
        "trace.overhead_frac":
            total / reference.wall - 1.0 if reference.wall > 0 else 0.0,
        "trace.self_sum_frac": selfs / total if total > 0 else 0.0,
        "trace.spans": len(tracer.spans),
        "ops.attempted": attempted_ops,
        "ops.failed_frac": failed_ops / attempted_ops if attempted_ops else 0.0,
    })
    return out


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wcox benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops and waits for the processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # a SIGCHLD ignored by the caller is inherited and makes the kernel reap
    # children itself, so wait4 could not read their status or usage
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)

    if not (SRC / "wcox" / "cli.py").is_file():
        print(f"perfbench: no wcox sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    machine = machine_record()
    run = Run(args.workload, args.seed)
    workload = WORKLOADS[args.workload](run)
    try:
        setup_times, setup_parts = [], {}

        def set_up():
            start = time.perf_counter()
            parts = workload.setup()
            setup_times.append(time.perf_counter() - start)
            for key, value in parts.items():
                setup_parts.setdefault(key, []).append(value)

        # a traced run compares the traced operation with its in-process
        # untraced twin, so one timed operation is enough there
        min_ops = 1 if args.trace else MIN_OPS
        ops = []
        start = time.perf_counter()
        # set-up runs before every operation and once after the last, so
        # that its samples span the run as the operations do
        while len(ops) < min_ops or time.perf_counter() - start < args.seconds:
            set_up()
            ops.append(workload.op())
        set_up()

        checked = list(ops)
        tracer = traced = reference = None
        if args.trace:
            sys.path.insert(0, str(SRC))
            import wcox.cli  # noqa: F401  (load every module before wrapping)

            reference = workload.in_process_op()
            tracer = Tracer("wcox")
            with tracer.installed():
                traced = workload.in_process_op()
            checked += [reference, traced]
        checks, values = run_checks(workload, args.seed, checked)

        if args.trace:
            metrics = per_layer(tracer, ops, reference, traced, setup_parts)
        else:
            metrics = end_to_end(ops, setup_times)
        attempted = sum(op.attempted for op in checked)
        failed = sum(op.failed for op in checked)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine,
            "setup_s": setup_times,
            "setup_parts": setup_parts,
            "ops": [
                {"wall_s": op.wall, "peak_rss_kb": op.peak_rss_kb,
                 "attempted": op.attempted, "failed": op.failed, "parts": op.parts,
                 "errors": op.errors, "failure_reasons": op.reasons}
                for op in checked
            ],
            "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
            "values": values,
            "metrics": metrics,
            "trace_report": tracer.report() if tracer else None,
        }
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        if not ok:
            print(f"perfbench: check failed: {name} {detail}", file=sys.stderr)
    if tracer:
        for key, reasons in tracer.report()["reasons"].items():
            print(f"perfbench: {key}: {reasons}", file=sys.stderr)
    for name in wanted:
        print(f"{name} = {metrics.get(name, float('nan')):.6g} {units[name]}", file=sys.stderr)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        correct = False
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in wanted if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
