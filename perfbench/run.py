"""Pipeline benchmark: the qoehandoff CLI jobs, timed end to end and, in a
separate traced run, layer by layer.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload roaming_compare --seed 1 \
        --seconds 20 --trace 0

Workloads (see README.md for sizes and why each was chosen):
  roaming_compare  compare-policies --timeline over the roaming harness
  congestion_fit   train-hmm, 3 states, 2-fold CV, on congestion traces
  trace_predict    simulate roaming traces, then predict over the CSV

Each run imports the program from `src/`, then repeats rounds until about
`--seconds` have passed: a round builds the workload's inputs afresh and
runs the workload's CLI job (through `qoehandoff.cli.main`, in this
process). A fixed loop timed around every round scales the reported
times to a reference speed of the host (README.md, "Host speed"). The
run then checks the outputs against computations made apart from the
program (`reference.py`).
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# QoE bands of the congestion scheme: MOS < 2, [2, 3), >= 3.
CONGESTION_BANDS = (2.0, 3.0)
PREDICT_RUNS = 240
CONGESTION_RUNS = 3
ROAMING_HMM_TRAINING_RUNS = 1
# The host's speed swings by up to 2x within minutes (README.md, "Host
# speed"), so a fixed loop is timed beside every set-up and pass, and
# times are reported at the speed at which the loop takes REFERENCE_LOOP_S:
# about its fastest on the reference host.
REFERENCE_LOOP_S = 0.14
LOOP_STEPS = 24000


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class RoamingCompare:
    """compare-policies --timeline: 12 evaluation runs x 101 epochs, 150
    Q-training episodes, 2+3-state HMMs fitted on 1 held-out run."""

    name = "roaming_compare"

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, q, d: Path):
        ini = d / "harness.ini"
        ini.write_text(f"[scenario]\nkind = roaming\nseed = {self.seed}\n"
                       f"[harness]\nhmm_training_runs = {ROAMING_HMM_TRAINING_RUNS}\n",
                       encoding="utf-8")
        self.ini = ini

    def job(self, q, out: Path) -> list[int]:
        return [q.cli.main(["compare-policies", "--config", str(self.ini),
                            "--timeline", "--out", str(out)])]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "report.json", out / "timeline.csv"]

    def check(self, q, out: Path, stdout: str) -> list[str]:
        fails = []
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if report["metadata"]["seed"] != self.seed:
            fails.append(f"report seed {report['metadata']['seed']} != {self.seed}")
        scenario = q.netsim.roaming_scenario(seed=self.seed)
        runs = [q.netsim.generate_run(scenario, r) for r in range(scenario.runs)]
        labels = [ch.label for ch in scenario.channels]
        paths = defaultdict(lambda: defaultdict(list))
        for row in _read_csv(out / "timeline.csv"):
            policy, r, t = row["policy"], int(row["run"]), int(row["epoch"])
            path = paths[policy][r]
            if t != len(path):
                fails.append(f"timeline {policy} run {r}: epoch {t} out of order")
            for i, label in enumerate(labels):
                if row[f"mos_{label}"] != format(float(runs[r].mos[i][t]), ".9g"):
                    fails.append(f"timeline {policy} run {r} epoch {t}: mos_{label}")
            path.append(int(row["chosen_interface"]))
            handoffs_so_far = sum(a != b for a, b in zip(path, path[1:]))
            if int(row["cumulative_handoffs"]) != handoffs_so_far:
                fails.append(f"timeline {policy} run {r} epoch {t}: cumulative handoffs")
        if sorted(report["policies"]) != sorted(q.harness.ALL_POLICIES):
            fails.append(f"policies in report: {sorted(report['policies'])}")
        for policy, entry in report["policies"].items():
            handoffs, mos_sum, epochs = 0, 0.0, 0
            for r, run in enumerate(runs):
                path = paths[policy][r]
                if len(path) != run.duration:
                    fails.append(f"{policy} run {r}: {len(path)} epochs in timeline")
                    continue
                h, s = ref.account(run.mos, path, scenario.handoff_penalty_mos)
                handoffs, mos_sum, epochs = handoffs + h, mos_sum + s, epochs + len(path)
                if policy == "best":
                    bands = [list(b) for b in run.states]
                    if not ref.on_best_band(bands, path):
                        fails.append(f"best run {r}: leaves the best band")
                    if h != ref.min_handoffs(bands, start=0):
                        fails.append(f"best run {r}: {h} handoffs, reference minimum "
                                     f"{ref.min_handoffs(bands, start=0)}")
            if abs(entry["handoff_count"] - handoffs) > 1e-9:
                fails.append(f"{policy}: report {entry['handoff_count']} handoffs, "
                             f"recount {handoffs}")
            if epochs and abs(entry["mean_mos"] - mos_sum / epochs) > 1e-9:
                fails.append(f"{policy}: report mean MOS {entry['mean_mos']!r}, "
                             f"recount {mos_sum / epochs!r}")
        return fails


class CongestionFit:
    """train-hmm, 3 states, 2-fold CV, on 3 congestion runs x 101 epochs.

    The trace set is the CLI's default congestion simulation (seed 0) for
    every --seed: see README.md, "Why congestion_fit ignores the seed".
    """

    name = "congestion_fit"

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, q, d: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            code = q.cli.main(["simulate", "--scenario", "wlan_congestion",
                               "--codec", "g711", "--runs", str(CONGESTION_RUNS),
                               "--seed", "0", "--out", str(d)])
        if code:
            raise RuntimeError(f"simulate exited with {code}")
        self.traces = d / "traces.csv"

    def job(self, q, out: Path) -> list[int]:
        return [q.cli.main(["train-hmm", "--traces", str(self.traces), "--states", "3",
                            "--folds", "2", "--scheme", "congestion",
                            "--out", str(out)])]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "model.json"]

    def check(self, q, out: Path, stdout: str) -> list[str]:
        fails = []
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        prior, tm = model["prior"], model["transitions"]
        means = [e["mean"] for e in model["emissions"]]
        variances = [e["variance"] for e in model["emissions"]]
        for row in [prior] + tm:
            if min(row) < 0 or abs(sum(row) - 1.0) > 1e-9:
                fails.append(f"not a probability vector: {row}")
        if means != sorted(means, reverse=True):
            fails.append(f"means not sorted descending: {means}")

        gen = q.netsim.congestion_wlan_g711_model()
        g_prior, g_tm = gen.prior.tolist(), gen.transitions.tolist()
        g_means, g_vars = gen.means().tolist(), gen.variances().tolist()
        for fitted, true in zip(means, g_means):
            if abs(fitted - true) > 0.10 * abs(true):
                fails.append(f"fitted mean {fitted:.4f} not within 10% of {true:.4f}")

        traces = defaultdict(list)
        for row in _read_csv(self.traces):
            traces[row["run_id"]].append((float(row["rtt_s"]), float(row["mos"])))
        ll_fit = ll_gen = 0.0
        correct = total = 0
        for samples in traces.values():
            obs = [x for x, _ in samples]
            ll_fit += ref.forward_filter(prior, tm, means, variances, obs)[1]
            beliefs, ll = ref.forward_filter(g_prior, g_tm, g_means, g_vars, obs)
            ll_gen += ll
            for t in range(len(obs) - 1):
                state, _ = ref.predict_next(beliefs[t], g_tm)
                correct += state == ref.band(samples[t + 1][1], CONGESTION_BANDS)
                total += 1
        if ll_fit < ll_gen:
            fails.append(f"fitted log-evidence {ll_fit:.3f} below the generator's "
                         f"{ll_gen:.3f}")

        folds = [line for line in stdout.splitlines() if line.startswith("fold ")]
        cv_correct = sum(int(f.rsplit("(", 1)[1].split("/")[0]) for f in folds)
        cv_total = sum(int(f.rsplit("/", 1)[1].rstrip(")")) for f in folds)
        if cv_total != total:
            fails.append(f"CV scored {cv_total} predictions, expected {total}")
        elif abs(cv_correct / cv_total - correct / total) > 0.02:
            fails.append(f"CV accuracy {cv_correct / cv_total:.4f} not within 2 pp of "
                         f"the generator's {correct / total:.4f}")
        return fails


class TracePredict:
    """simulate --scenario roaming (240 runs x 101 epochs x 2 interfaces),
    then predict over the CSV under a saved 3-state model."""

    name = "trace_predict"

    def __init__(self, seed: int):
        self.seed = seed

    def build(self, q, d: Path):
        self.model = d / "model.json"
        q.hmm.save_model(q.netsim.roaming_cdma_g729_model(), self.model)

    def job(self, q, out: Path) -> list[int]:
        sim, pred = out / "sim", out / "pred"
        codes = [q.cli.main(["simulate", "--scenario", "roaming", "--runs",
                             str(PREDICT_RUNS), "--seed", str(self.seed),
                             "--out", str(sim)])]
        codes.append(q.cli.main(["predict", "--model", str(self.model), "--traces",
                                 str(sim / "traces.csv"), "--out", str(pred)]))
        return codes

    def outputs(self, out: Path) -> list[Path]:
        return [out / "sim" / "traces.csv", out / "pred" / "predictions.csv"]

    def check(self, q, out: Path, stdout: str) -> list[str]:
        fails = []
        scenario = q.netsim.roaming_scenario(seed=self.seed, runs=PREDICT_RUNS)
        labels = [ch.label for ch in scenario.channels]
        traces = q.trace_io.read_traces(
            (out / "sim" / "traces.csv").read_text(encoding="utf-8"))
        by_key = {(t.run_id, t.interface_label): t for t in traces}
        if len(traces) != PREDICT_RUNS * len(labels):
            fails.append(f"{len(traces)} traces read back")
        for r in range(PREDICT_RUNS):
            run = q.netsim.generate_run(scenario, r)
            for i, label in enumerate(labels):
                trace = by_key.get((f"run{r:03d}", label))
                if trace is None:
                    fails.append(f"run {r} {label}: trace missing")
                    continue
                expected = [(t, float(format(float(run.delays_s[i][t]), ".9g")),
                             float(format(float(run.mos[i][t]), ".9g")))
                            for t in range(run.duration)]
                if list(trace.samples) != expected:
                    fails.append(f"run {r} {label}: read-back differs from simulation")

        model = json.loads(self.model.read_text(encoding="utf-8"))
        params = (model["prior"], model["transitions"],
                  [e["mean"] for e in model["emissions"]],
                  [e["variance"] for e in model["emissions"]])
        rows = _read_csv(out / "pred" / "predictions.csv")
        predicted = {(row["run_id"], row["interface"], int(row["epoch"])):
                     int(row["predicted_state"]) for row in rows}
        expected_rows = ties = 0
        for trace in traces:
            beliefs, _ = ref.forward_filter(*params, trace.rtts())
            for t in range(len(trace.samples) - 1):
                state, lead = ref.predict_next(beliefs[t], params[1])
                key = (trace.run_id, trace.interface_label, trace.samples[t + 1][0])
                expected_rows += 1
                if predicted.get(key) == state:
                    continue
                if key in predicted and lead <= 1e-9:
                    ties += 1  # float-level tie between the top two states
                else:
                    fails.append(f"prediction {key}: {predicted.get(key)} != {state}")
        if len(rows) != expected_rows:
            fails.append(f"{len(rows)} prediction rows, expected {expected_rows}")
        if ties:
            print(f"note: {ties} predictions decided by a float-level tie")
        return fails[:20]


WORKLOADS = {w.name: w for w in (RoamingCompare, CongestionFit, TracePredict)}

# Span names reported with .calls and .s; then names reported with .s only.
CALL_SPANS = (
    "netsim.generate_run", "netsim.step_environment",
    "qoe_model.mos_from_delay", "qoe_model.quantize_mos",
    "probing.aggregate_epoch", "probing.rnl_update",
    "hmm.em_train", "hmm.cross_validate", "hmm.forward_filter",
    "hmm.predict_next_state", "hmm.predict_belief",
    "policies.q_update", "policies.epsilon_greedy_action", "policies.exploit_action",
    "policies.oracle_policy", "policies.m4_policy_step", "policies.naive_policy_step",
    "policies.reward",
)
TIME_SPANS = ("harness.train_interface_models", "harness.q_train", "harness.q_eval",
              "trace_io.write_traces", "trace_io.read_traces")
COUNTS = ("netsim.generate_run.repeat_calls", "hmm.em_train.iterations",
          "hmm.forward_filter.samples", "harness.q_train.episodes",
          "harness.q_eval.runs", "trace_io.write_traces.rows",
          "trace_io.read_traces.rows")
LAYERS = ("cli", "harness", "netsim", "qoe_model", "probing", "hmm", "policies",
          "trace_io")


def per_layer_metrics(tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value per traced pass, unit), in report order."""
    totals = {f"{layer}.self_s": tracer.self_time[layer] for layer in LAYERS}
    for span in CALL_SPANS:
        totals[f"{span}.calls"] = tracer.calls[span]
        totals[f"{span}.s"] = tracer.inclusive[span]
    for span in TIME_SPANS:
        totals[f"{span}.s"] = tracer.inclusive[span]
    for name in COUNTS:
        totals[name] = tracer.counts[name]
    return {name: (total / passes,
                   "count" if name.endswith(".calls") or name in COUNTS else "s")
            for name, total in totals.items()}


class SpeedLoop:
    """A fixed loop of small NumPy steps, like those of the fallback
    kernel, that uses nothing of the program. Calling it returns its wall
    time."""

    def __init__(self, np):
        self.np = np
        self.rows = np.random.default_rng(0).normal(size=(LOOP_STEPS, 3))
        self.tm, self.p0 = np.full((3, 3), 1 / 3), np.ones(3) / 3

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        pred = self.p0
        for row in self.rows:
            a = pred * np.exp(row - row.max())
            pred = (a / a.sum()) @ self.tm
        return time.perf_counter() - t0


class Program:
    """The program's modules, imported from the checkout's `src/`."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "qoehandoff" / "cli.py").is_file():
            raise SystemExit(f"error: no program sources under {src}")
        sys.path.insert(0, str(src))
        import numpy
        from qoehandoff import cli, harness, hmm, netsim, trace_io
        self.cli, self.harness, self.hmm = cli, harness, hmm
        self.netsim, self.trace_io, self.numpy = netsim, trace_io, numpy


def run_pass(q, wl, out: Path, tracer=None) -> tuple[float, list[int], str]:
    buf = io.StringIO()
    if tracer is not None:
        tracer.new_pass()
        tracer.install()
    try:
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            codes = wl.job(q, out)
            elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return elapsed, codes, buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    q = Program()
    wl = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        return _run(q, wl, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def set_up(q, wl, d: Path) -> float:
    """What a user pays before the job: a fresh interpreter starts and
    imports the program, then the workload's inputs are built into `d`.
    Returns the wall time of both."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import qoehandoff.cli",
                    str(ROOT / "src")], check=True)
    d.mkdir()
    wl.build(q, d)
    return time.perf_counter() - t0


def _run(q, wl, args, tmp: Path) -> int:
    print(f"workload: {wl.name}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}")
    print(f"backend: {q.hmm.BACKEND}  python: {platform.python_version()}  "
          f"numpy: {q.numpy.__version__}  nproc: {len(os.sched_getaffinity(0))}")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    # Each round sets up afresh and then runs the job on the new inputs, with
    # the speed loop timed before and after, so that set-up and job are
    # sampled over the whole run and each is scaled by the host's speed of
    # the moment (README.md, "Host speed").
    speed_loop = SpeedLoop(q.numpy)
    loops, setups, untraced, traced = [speed_loop()], [], [], []
    attempted = failed = 0
    digests, last_ok = set(), None
    start = time.perf_counter()
    n = 0
    while True:
        round_start = time.perf_counter()
        setups.append(set_up(q, wl, tmp / f"inputs{len(setups)}"))
        if len(setups) > 1:
            shutil.rmtree(tmp / f"inputs{len(setups) - 2}")
        for t in ((None, tracer) if tracer else (None,)):
            out = tmp / f"pass{n}"
            elapsed, codes, stdout = run_pass(q, wl, out, t)
            (traced if t else untraced).append(elapsed)
            attempted += len(codes)
            failed += sum(1 for c in codes if c != 0)
            if not any(codes):
                digests.add(tuple(_digest(p) for p in wl.outputs(out)))
                if last_ok is not None:
                    shutil.rmtree(last_ok[0], ignore_errors=True)
                last_ok = (out, stdout)
            n += 1
        loops.append(speed_loop())
        # Stop where one more round would overshoot `--seconds` by more than
        # half a round, so that a run lasts `--seconds`, give or take that.
        now = time.perf_counter()
        if n >= 2 and now + (now - round_start) / 2 >= start + args.seconds:
            break
    # The program's peak, before the checks add the benchmark's own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fails = ["outputs differ between passes"] if len(digests) > 1 else []
    if failed:
        fails.append(f"{failed} of {attempted} CLI operations exited non-zero")
    if last_ok is not None:
        fails += wl.check(q, *last_ok)
    for f in fails:
        print(f"check failed: {f}")
    correct = not fails
    print(f"checks: {'passed' if correct else 'FAILED'}")
    print(f"{wl.name}: attempted {attempted}, failed {failed}")

    # Round i's passes are scaled by the mean of the loops around them, its
    # set-up by the loop just before it.
    pass_scale = [REFERENCE_LOOP_S / ((a + b) / 2) for a, b in zip(loops, loops[1:])]
    print("speed loop, s: " + " ".join(f"{v:.4f}" for v in loops))
    if tracer:
        metrics = per_layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = (statistics.median(
            (b - a) * k for a, b, k in zip(untraced, traced, pass_scale)), "s")
        traced_job_s = tracer.root_seconds() / len(traced)
        self_sum = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        print(f"traced job_s {traced_job_s:.6f} s over {len(traced)} passes; "
              f"sum of layer self_s {self_sum:.6f} s; fastest untraced pass "
              f"{min(untraced):.6f} s")
        if abs(self_sum - traced_job_s) > 1e-6 * max(traced_job_s, 1.0):
            print("check failed: layer self times do not add up to the traced job")
            correct = False
        spans = WORK / f"spans-{wl.name}.npz"
        tracer.save(spans)
        print(f"wrote {len(tracer.start)} spans to {spans.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": (statistics.median(
                v * REFERENCE_LOOP_S / k for v, k in zip(setups, loops)), "s"),
            "job_s": (statistics.median(
                v * k for v, k in zip(untraced, pass_scale)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"set-up wall times over {len(setups)} rounds, s: "
              + " ".join(f"{v:.3f}" for v in setups))
        print(f"pass wall times over {len(untraced)} passes, s: "
              + " ".join(f"{v:.3f}" for v in untraced))

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
