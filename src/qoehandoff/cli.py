"""Command-line front end.

Subcommands:
  simulate          generate scenario runs and persist them as trace CSV
  train-hmm         fit a delay HMM to traces and cross-validate prediction
  predict           one-step state predictions for traces under a model
  compare-policies  evaluate handoff policies over a shared run set
  report            merge report JSON files into a summary CSV

Exit codes: 0 success, 2 usage/config error, 3 data validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, netsim, trace_io
from .errors import DomainError, TraceParseError, TraceValidationError
from .hmm import (EmConfig, cross_validate_folds, em_train, forward_filter,
                  load_model, save_model)
from .hmm.inference import predict_next_state
from .qoe_model import CODECS, CONGESTION_SCHEME, ROAMING_SCHEME

EXIT_USAGE = 2
EXIT_DATA = 3

SCHEMES = {"congestion": CONGESTION_SCHEME, "roaming": ROAMING_SCHEME}


def _scenario_from_args(args) -> netsim.ScenarioConfig:
    codec = CODECS[args.codec]
    if args.scenario == "roaming":
        return netsim.roaming_scenario(codec=codec, duration_epochs=args.duration,
                                       runs=args.runs, seed=args.seed)
    return netsim.congestion_scenario(codec=codec, duration_epochs=args.duration,
                                      runs=args.runs, seed=args.seed)


def cmd_simulate(args) -> int:
    scenario = _scenario_from_args(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = [ch.label for ch in scenario.channels]
    traces = []
    mos_sums = np.zeros(len(labels))
    epochs = 0
    for r in range(scenario.runs):
        run = netsim.generate_run(scenario, r)
        traces.extend(trace_io.traces_from_run(run, labels, run_id=f"run{r:03d}"))
        mos_sums += [m.sum() for m in run.mos]
        epochs += run.duration
    trace_path = out_dir / "traces.csv"
    trace_path.write_text(trace_io.write_traces(traces), encoding="utf-8")
    summary = {
        "scenario": scenario.kind,
        "codec": scenario.codec.name,
        "seed": scenario.seed,
        "runs": scenario.runs,
        "duration_epochs": scenario.duration_epochs,
        "mean_mos_per_interface": {label: mos_sums[i] / epochs
                                   for i, label in enumerate(labels)},
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for label in labels:
        print(f"{label}: mean MOS {summary['mean_mos_per_interface'][label]:.3f}")
    print(f"wrote {trace_path}")
    return 0


def _load_dataset(path, halve_rtt: bool):
    traces = trace_io.read_traces(Path(path).read_text(encoding="utf-8"))
    dataset = []
    for trace in traces:
        mos = trace.mos_values()
        if any(m is None for m in mos):
            raise TraceValidationError(
                f"run {trace.run_id}/{trace.interface_label}: mos column required here")
        obs = trace.owds(rtt_is_round_trip=halve_rtt) if halve_rtt else trace.rtts()
        dataset.append((np.asarray(obs), np.asarray(mos, dtype=float)))
    return traces, dataset


def cmd_train_hmm(args) -> int:
    scheme = SCHEMES[args.scheme]
    _, dataset = _load_dataset(args.traces, halve_rtt=False)
    config = EmConfig(seed=args.seed)
    model, report = em_train([obs for obs, _ in dataset], args.states, config,
                             scheme=scheme if args.states == scheme.state_count
                             else None)
    scores = cross_validate_folds(dataset, args.folds, args.states, scheme, config)
    for i, (c, t) in enumerate(scores):
        print(f"fold {i + 1}: accuracy {c / t:.4f} ({c}/{t})")
    total_c = sum(c for c, _ in scores)
    total_t = sum(t for _, t in scores)
    print(f"mean accuracy: {total_c / total_t:.4f}")
    print(f"final log-likelihood: {report.log_likelihoods[-1]:.6f} "
          f"({report.iterations} iterations, converged={report.converged})")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.json"
    save_model(model, model_path)
    print(f"wrote {model_path}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    traces = trace_io.read_traces(Path(args.traces).read_text(encoding="utf-8"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "predictions.csv"
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run_id", "interface", "epoch", "predicted_state"])
        for trace in traces:
            beliefs, _ = forward_filter(model, np.asarray(trace.rtts()))
            for t in range(len(trace.samples) - 1):
                state, _ = predict_next_state(model, beliefs[t])
                writer.writerow([trace.run_id, trace.interface_label,
                                 trace.samples[t + 1][0], state])
    print(f"wrote {out_path}")
    return 0


def cmd_compare_policies(args) -> int:
    overrides = {"seed": args.seed, "runs": args.runs,
                 "duration_epochs": args.duration}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if args.config:
        if overrides:
            print("error: --seed, --runs and --duration cannot be combined with "
                  "--config; set them in its [scenario] section", file=sys.stderr)
            return EXIT_USAGE
        cfg = harness.load_config(args.config)
    else:
        cfg = harness.default_roaming_harness(**overrides)
    report = harness.run_comparison(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(report.to_json(), encoding="utf-8")
    if args.timeline:
        _write_timelines(cfg, report, out_dir / "timeline.csv")
    for name, result in report.policies.items():
        print(f"{name:>8}: handoffs {result.handoff_count:4d}  "
              f"mean MOS {result.mean_mos:.3f}")
    for baseline, red in report.reductions().items():
        print(f"reduction vs {baseline}: "
              + ("—" if red is None else f"{100 * red:.2f}%"))
    print(f"wrote {report_path}")
    return 0


def _write_timelines(cfg, report, path) -> None:
    """Plot-ready per-epoch rows for each policy over the evaluation runs."""
    scenario = cfg.scenario
    runs = [netsim.generate_run(scenario, r) for r in range(scenario.runs)]
    labels = [ch.label for ch in scenario.channels]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["policy", "run", "epoch"]
                        + [f"mos_{l}" for l in labels]
                        + ["chosen_interface", "cumulative_handoffs"])
        for name, result in report.policies.items():
            for r, path_seq in enumerate(result.paths):
                run = runs[r]
                cum = 0
                for t, chosen in enumerate(path_seq):
                    if t > 0 and path_seq[t] != path_seq[t - 1]:
                        cum += 1
                    writer.writerow([name, r, t]
                                    + [format(float(run.mos[i][t]), ".9g")
                                       for i in range(len(labels))]
                                    + [chosen, cum])


def cmd_report(args) -> int:
    rows = []
    for path in args.reports:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        row = {"source": str(path)}
        for key in ("scenario", "codec", "seed"):
            row[key] = doc.get("metadata", {}).get(key)
        for policy in harness.ALL_POLICIES:
            entry = doc.get("policies", {}).get(policy)
            row[f"{policy}_handoffs"] = entry["handoff_count"] if entry else ""
            row[f"{policy}_mean_mos"] = entry["mean_mos"] if entry else ""
        rows.append(row)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "summary.csv"
    fields = ["source", "scenario", "codec", "seed"]
    for policy in harness.ALL_POLICIES:
        fields += [f"{policy}_handoffs", f"{policy}_mean_mos"]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qoehandoff")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate scenario runs as trace CSV")
    p.add_argument("--scenario", choices=["roaming", "wlan_congestion"],
                   default="roaming")
    p.add_argument("--codec", choices=sorted(CODECS), default="g729")
    p.add_argument("--runs", type=int, default=12)
    p.add_argument("--duration", type=int, default=101)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-hmm", help="fit a delay HMM and cross-validate")
    p.add_argument("--traces", required=True)
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--scheme", choices=sorted(SCHEMES), default="congestion")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_hmm)

    p = sub.add_parser("predict", help="one-step state predictions for traces")
    p.add_argument("--model", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compare-policies", help="evaluate handoff policies")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, help="default 0; not with --config")
    p.add_argument("--runs", type=int, help="default 12; not with --config")
    p.add_argument("--duration", type=int, help="default 101; not with --config")
    p.add_argument("--timeline", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare_policies)

    p = sub.add_parser("report", help="merge report JSON files")
    p.add_argument("reports", nargs="*")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (TraceParseError, TraceValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DomainError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
