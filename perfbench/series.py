"""Run the benchmark over several seeds, or compare two sets of such runs.

Usage (from the root of a checkout):
    python3 perfbench/series.py --seeds 10 --out perfbench/.work/a.json
    python3 perfbench/series.py --compiled --seeds 5 --out perfbench/.work/c.json
    python3 perfbench/series.py --compare perfbench/.work/a.json perfbench/.work/c.json

A series runs `run.py` (or `compiled.py`, with `--compiled`) once per
workload and seed, each in its own process, one after another. It prints
every run's result line and then, for each workload and end-to-end
metric, the median, the quartiles and the spread (distance between the
quartiles over the median) next to the metric's bound in BENCHMARK.json.
It exits with 1 if any run failed its checks or an operation.

`--compare A B` prints the same figures for two result files side by
side, with B's median change against A's. A change is marked unresolved
when either series spreads wider than the metric's bound, since such a
series cannot tell a change of that size from the host's noise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(q) -> float:
    """Quartile distance over the median, for (q1, median, q3)."""
    return (q[2] - q[0]) / q[1]


def run_series(args, spec) -> dict:
    program = HERE / ("compiled.py" if args.compiled else "run.py")
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {"seconds": seconds, "program": program.name,
               "host": {"python": platform.python_version(), "machine": platform.machine(),
                        "nproc": len(os.sched_getaffinity(0))},
               "runs": {w: [] for w in workloads}}
    ok = True
    for workload in workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(program), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            wall_s = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            for line in lines:
                if line.startswith("backend:"):
                    results["host"]["backend"] = line.split()[1]
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: no result line "
                                 f"(exit {proc.returncode})")
            ok &= result["correct"] and result["failed"] == 0 and proc.returncode == 0
            values = {k: v["value"] for k, v in result["metrics"].items()}
            results["runs"][workload].append(
                {"seed": seed, "correct": result["correct"],
                 "attempted": result["attempted"], "failed": result["failed"],
                 "wall_s": wall_s, "metrics": values})
            print(f"{workload} seed {seed}: wall {wall_s:.1f} s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    results["ok"] = ok
    return results


def summarize(results, spec) -> None:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n{results['program']}, {results['seconds']} s per run, host "
          + ", ".join(f"{k} {v}" for k, v in results["host"].items()))
    print(f"{'workload':<16} {'metric':<12} {'runs':>4} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}  failed")
    for workload, runs in results["runs"].items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = quartiles(values)
            width = spread((q1, med, q3)) if med else float("nan")
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and width > bound / 3:
                flag = "  wide" if width <= bound else "  OVER BOUND"
            print(f"{workload:<16} {name:<12} {len(values):>4} {med:>10.4g} {q1:>10.4g} "
                  f"{q3:>10.4g} {width:>7.3f} {bound if bound is not None else '':>6}  "
                  f"{failed}/{attempted}{flag}")


def compare(path_a: Path, path_b: Path, spec) -> None:
    a = json.loads(path_a.read_text(encoding="utf-8"))
    b = json.loads(path_b.read_text(encoding="utf-8"))
    print(f"A = {path_a} ({a['program']}, backend {a['host'].get('backend')})")
    print(f"B = {path_b} ({b['program']}, backend {b['host'].get('backend')})")
    print(f"{'workload':<16} {'metric':<12} {'A median':>10} {'A q1..q3':>21} "
          f"{'B median':>10} {'B q1..q3':>21} {'B/A-1':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        for workload in a["runs"]:
            if workload not in b["runs"]:
                continue
            qa = quartiles([r["metrics"][name] for r in a["runs"][workload]])
            qb = quartiles([r["metrics"][name] for r in b["runs"][workload]])
            change = qb[1] / qa[1] - 1.0
            if max(spread(qa), spread(qb)) > bound:
                verdict = "  unresolved: spread wider than bound"
            elif (change if m["better"] == "lower" else -change) > bound:
                verdict = "  worse than bound"
            else:
                verdict = ""
            print(f"{workload:<16} {name:<12} {qa[1]:>10.4g} {qa[0]:>10.4g}..{qa[2]:<9.4g} "
                  f"{qb[1]:>10.4g} {qb[0]:>10.4g}..{qb[2]:<9.4g} {change:>+8.1%} "
                  f"{bound:>6}{verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--workloads", type=lambda s: s.split(","))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compiled", action="store_true",
                        help="run against the gcc-built C kernel (compiled.py)")
    parser.add_argument("--out", type=Path, help="write the series as JSON")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        compare(*args.compare, spec)
        return 0
    results = run_series(args, spec)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    summarize(results, spec)
    return 0 if results["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
