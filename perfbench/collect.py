"""Repeat benchmark runs and summarise them.

    python3 perfbench/collect.py spread WORKLOAD [--seeds 1-10]
        runs run.py once per seed (untraced) and prints, for every
        end-to-end metric, the median, the quartiles and their distance
        as a share of the median next to the metric's bound
    python3 perfbench/collect.py baseline [--seeds 1-10]
        the spread of every workload plus one traced run each, written
        with the machine record to perfbench/baseline.json; exits 1 if
        any run failed a check
    python3 perfbench/collect.py golden
        runs every workload once at the default seed and writes the
        values the checks compare against to perfbench/golden.json; use it
        only after a change that is meant to alter results

Run from the root of a checkout.  Runs go one after another, never two
at once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import DEFAULT_SEED, OUT  # noqa: E402


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, trace: int, seconds=None) -> tuple[int, dict, dict]:
    """One run of run.py: exit code, its result line and its record."""
    seconds = SPEC["run_seconds"] if seconds is None else seconds
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    record_path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    if proc.returncode != 0:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
    return proc.returncode, result, record


def spread(workload: str, seed_list) -> dict:
    values: dict[str, list] = {m["name"]: [] for m in SPEC["end_to_end"]}
    failures = 0
    for seed in seed_list:
        code, result, _ = bench(workload, seed, 0)
        failures += code != 0 or not result.get("correct", False)
        for name, m in result.get("metrics", {}).items():
            values[name].append(m["value"])
        print(f"{workload} seed {seed}: "
              + " ".join(f"{k}={v[-1]:.4f}" for k, v in values.items() if v), flush=True)
    summary = {"seeds": list(seed_list), "failed_runs": failures, "metrics": {}}
    for metric in SPEC["end_to_end"]:
        vals = values[metric["name"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        summary["metrics"][metric["name"]] = {
            "values": vals, "median": med, "q1": q1, "q3": q3,
            "spread": share, "bound": metric["bound"],
            "steady": share < metric["bound"] / 3,
        }
        print(f"  {metric['name']}: median {med:.4f} {metric['unit']}, "
              f"quartiles [{q1:.4f}, {q3:.4f}], spread {share:.4f} "
              f"(bound {metric['bound']}, third {metric['bound'] / 3:.4f})", flush=True)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("spread", "baseline", "golden"))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    names = [w["name"] for w in SPEC["workloads"]]

    if args.mode == "spread":
        if args.workload not in names:
            parser.error(f"workload must be one of {names}")
        summary = spread(args.workload, seeds(args.seeds))
        OUT.mkdir(exist_ok=True)
        (OUT / f"spread-{args.workload}.json").write_text(json.dumps(summary, indent=1))
        return 0 if summary["failed_runs"] == 0 else 1

    if args.mode == "golden":
        golden = {"seed": DEFAULT_SEED}
        for name in names:
            _, _, record = bench(name, DEFAULT_SEED, 0, seconds=0)
            broken = [c for c in record.get("checks", [])
                      if not c["passed"] and not c["name"].startswith("golden")]
            if broken or not record.get("values"):
                print(f"{name}: not recording golden values: {broken}", file=sys.stderr)
                return 1
            golden[name] = record["values"]
        (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
        return 0

    baseline = {"workloads": {}}
    failed = 0
    for name in names:
        summary = spread(name, seeds(args.seeds))
        code, result, record = bench(name, DEFAULT_SEED, 1)
        failed += summary["failed_runs"] + (code != 0)
        summary["traced"] = {
            "seed": DEFAULT_SEED,
            "correct": result.get("correct"),
            "per_layer": {k: m["value"] for k, m in result.get("metrics", {}).items()},
            "reasons": (record.get("trace_report") or {}).get("reasons", {}),
        }
        baseline["machine"] = record.get("machine")
        baseline["workloads"][name] = summary
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
