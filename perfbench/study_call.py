"""The `study-boot` workload: one library call to `wcox.run_study`.

Run as a script it makes the call in its own process, writes the study
report CSV to `--out` and prints one JSON line with the wall time of the
call, the CPU seconds it used (this process plus the pool workers) and
the peak resident set size of the workers:

    python3 perfbench/study_call.py --seed 1 --out report.csv

`run.py` also imports it to make the same call in-process with one
worker, untraced and under the tracer.  `src/` must be importable (`PYTHONPATH=src`).
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import time

REPLICATES = 16
BOOTSTRAP_B = 100

# Large-sample targets tau* for the factorial design at psi = 2, computed
# once with wcox.true_estimand(..., m=1_000_000, seed=0).  They are passed
# in as inputs because computing them takes about 30 s a run (m may not go
# below 1e6), longer than the study itself.
ESTIMAND_T0 = 59.62981083347734
ESTIMANDS = {
    "ipw": (0.17438912348808086, -0.09603997506382626, 0.07414385343550536),
    "ow": (0.2404281398933565, -0.13195195419167163, 0.10255552157973265),
}


def run(seed: int):
    """The `run_study` call of the workload; returns the StudyReport."""
    import numpy as np
    from wcox.simulation import EstimandResult, ScenarioConfig, run_study

    config = ScenarioConfig(
        setting="factorial",
        psi=2.0,
        n=1000,
        censoring=0.25,
        replicates=REPLICATES,
        bootstrap_b=BOOTSTRAP_B,
        seed=seed,
    )
    estimands = {
        scheme: EstimandResult(
            setting="factorial",
            scheme=scheme,
            psi=2.0,
            tau_star=np.array(tau),
            m=1_000_000,
            seed=0,
            t0=ESTIMAND_T0,
        )
        for scheme, tau in ESTIMANDS.items()
    }
    return run_study(config, estimands)


def report_csv(report) -> str:
    buf = io.StringIO()
    report.to_csv(buf)
    return buf.getvalue()


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    import wcox.simulation  # noqa: F401  (import is not part of the call)

    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    report = run(args.seed)
    wall = time.perf_counter() - start
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report_csv(report))
    print(
        json.dumps(
            {
                "study_s": wall,
                "cpu_s": cpu,
                "workers_maxrss_kb": resource.getrusage(
                    resource.RUSAGE_CHILDREN
                ).ru_maxrss,
                "n_failed": report.n_failed,
                "failure_reasons": report.failure_reasons,
            }
        )
    )


if __name__ == "__main__":
    main()
